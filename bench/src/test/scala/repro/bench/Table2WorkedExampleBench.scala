package repro.bench

import org.scalatest.funsuite.AnyFunSuite

import repro.eval.Tables

/** Table 2 — the paper's worked example (Fig. 3's seven records): candidate
  * values, summed weights, probabilities, and normalized probabilities, as
  * produced by the per-cell kernel. Exact-value checks live in
  * `repro.core.PaperExampleSpec`; this bench regenerates the printable table
  * and asserts its headline facts.
  */
class Table2WorkedExampleBench extends AnyFunSuite {

  private lazy val rows = Tables.table2()

  test("print Table 2") {
    println("\n== Table 2: Candidate Generation State (paper worked example) ==")
    println(Tables.renderTable2(rows))
  }

  test("cells r1..r6 have candidates; r7 was never flagged") {
    assert(rows.map(_.cell).toSet == Set(1L, 2L, 3L, 4L, 5L, 6L))
  }

  test("r1's favored value flips to Manhattan (the paper's headline)") {
    val r1 = rows.filter(_.cell == 1L)
    assert(r1.maxBy(_.normProb).value == "Manhattan")
  }

  test("sum-weight column matches the paper for r1") {
    val m = rows.filter(_.cell == 1L).map(r => r.value -> r.sumW).toMap
    assert(math.abs(m("Manhattan") - 0.89) < 1e-9)
    assert(math.abs(m("Queens") - 0.12) < 1e-9)
    assert(math.abs(m("S. Island") - 0.01) < 1e-9)
  }

  test("MinProb removed the paper's marginal candidates") {
    def values(cell: Long) = rows.filter(_.cell == cell).map(_.value).toSet
    assert(!values(2L).contains("Queens"))
    assert(!values(4L).contains("Manhattan"))
    assert(!values(5L).contains("S. Island"))
  }
}
