package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The per-cell kernel `Sparcle.decide` without Spark, on the paper's worked
  * example (Fig. 3, Table 2, Fig. 4): `PaperExample.Cells` decides each
  * record's histogram of its Fig. 3c rows with Fig. 3b's statistics.
  */
class CellKernelSpec extends AnyFunSuite {

  import PaperExample._

  private val cells: Map[Long, Cell] = Cells

  private def scores(id: Long): Map[String, Candidate] = cells(id).candidates.map(c => c.value -> c).toMap

  test("detector and candidate sets match Fig. 3 and Table 2") {
    assert(cells.collect { case (id, c) if c.detected => id }.toSet == Set(1L, 2L, 3L, 4L, 5L, 6L))
    assert(cells(1L).candidates.map(_.value) == Seq(Man, SI, Queens)) // rank order
    assert(scores(2L).keySet == Set(Man, SI))
    assert(scores(4L).keySet == Set(Queens, SI))
    assert(scores(5L).keySet == Set(Queens))
  }

  test("r1's Table 2 and Fig. 4 values") {
    val r1 = scores(1L)
    for ((v, sumW, normProb, viol, p, fg) <- Seq(
           (Man, 0.89, 0.68, 0.12, 0.88, 0.77),
           (Queens, 0.12, 0.09, 0.89, 0.12, -0.77),
           (SI, 0.01, 0.23, 1.01, 0.0, -1.01))) {
      assert(math.abs(r1(v).sumW - sumW) < 1e-9, v)
      assert(math.abs(r1(v).normProb - normProb) < 0.01, v)
      assert(math.abs(r1(v).viol - viol) < 1e-9, v)
      assert(math.abs(r1(v).p - p) < 0.01, v)
      assert(math.abs(r1(v).fg - fg) < 1e-9, v)
    }
    assert(math.abs(r1(Man).prob - 89.0 / 300000000) < 1e-15)
  }

  test("r5 is labelled Queens, r1 is repaired to Manhattan and r2 to S. Island") {
    assert(cells.collect { case (id, c) if c.detected && c.label != null => id -> c.label } == Map(5L -> Queens))
    assert(cells.collect { case (id, c) if c.detected && c.newValue != c.v1 => id -> c.newValue } ==
           Map(1L -> Man, 2L -> SI))
  }
}
