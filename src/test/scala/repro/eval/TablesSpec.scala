package repro.eval

import org.scalatest.funsuite.AnyFunSuite

class TablesSpec extends AnyFunSuite {

  test("Table 6 prints Sparcle's overhead over HoloClean from the unrounded seconds") {
    val table = Tables.renderTable6(Seq(
      Tables.Table6Row("Austin-Code", 22 * 60 + 10, 17 * 60 + 39, Right(3830)),
      Tables.Table6Row("Chicago-Building", 0.14, 0.11, Left(Runner.MemMarker)),
      Tables.Table6Row("NYC-Crash", 0.95, 1.0, Left(Runner.TimeoutMarker))))
    val lines = table.split("\n")
    assert(lines(0).contains("Sparcle vs HoloClean"))
    assert(lines(2).contains("| +26%"), lines(2))
    // Both print as 0.1s; the overhead still reads the seconds.
    assert(lines(3).contains("0m00.1s") && lines(3).contains("| +27%"), lines(3))
    assert(lines(4).contains("| -5%"), lines(4))
  }
}
