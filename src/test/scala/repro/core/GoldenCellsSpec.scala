package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Paths}

import scala.io.Source

import org.apache.spark.sql.{DataFrame, Row}

import repro.SparkSpec
import repro.cleaning.HoloCleanLike
import repro.data.Datasets

/** `clean`'s per-cell output on a small NYC-Crash stand-in, pinned line for
  * line: every candidate with all its scores, the labels, the detected cells
  * and the repairs, under range (n = 2 and n = 0), exact-location, kNN and
  * HoloCleanLike. A double is printed by `java.lang.Double.toString`, which
  * reads back to the same bits, so any change in a score shows. A change
  * that moves a number on purpose regenerates the file from the lines this
  * test writes to `target/golden-cells.txt` and says why in CHANGES.md.
  */
class GoldenCellsSpec extends SparkSpec {

  private implicit lazy val ss: org.apache.spark.sql.SparkSession = spark

  private lazy val points = Datasets.nycCrash(scale = 0.017).points("zipcode")

  private val runs: Seq[(String, DataFrame => SparcleResult)] = Seq(
    "range700n2" -> (p => Sparcle.clean(p, SparcleParams(SpatialRange(700, PowerWeight(2))))),
    "range700n0" -> (p => Sparcle.clean(p, SparcleParams(SpatialRange(700, PowerWeight(0))))),
    "exact" -> (p => Sparcle.clean(p, SparcleParams(ExactLocation))),
    "knn5" -> (p => Sparcle.clean(p, SparcleParams(SpatialKnn(5)))),
    "holoclean" -> (p => HoloCleanLike.clean(p)))

  private def show(v: Any): String = v match {
    case d: Double => java.lang.Double.toString(d)
    case other     => String.valueOf(other)
  }

  private def lines(run: String, frame: String, df: DataFrame): Seq[String] =
    df.collect().toSeq.map((r: Row) => (Seq(run, frame) ++ r.toSeq.map(show)).mkString("\t"))

  test("clean's candidates, labels, erroneous cells and repairs match the golden file") {
    val got = runs.flatMap { case (name, clean) =>
      val r = clean(points)
      lines(name, "candidate", r.candidates) ++ lines(name, "label", r.labels) ++
        lines(name, "erroneous", r.erroneous) ++ lines(name, "repair", r.repairs)
    }.sorted
    Files.createDirectories(Paths.get("target"))
    Files.write(Paths.get("target/golden-cells.txt"), got.mkString("", "\n", "\n").getBytes(UTF_8))
    val source = Source.fromInputStream(getClass.getResourceAsStream("/golden-cells.txt"), "UTF-8")
    val want = try source.getLines().toSeq finally source.close()
    val differ = got.zipAll(want, "(none)", "(none)").indexWhere { case (g, w) => g != w }
    assert(differ < 0, s"line ${differ + 1}: got ${got.lift(differ)}, want ${want.lift(differ)}")
    assert(got.size == want.size)
    for (run <- runs.map(_._1); frame <- Seq("candidate", "label", "erroneous", "repair"))
      assert(got.exists(_.startsWith(s"$run\t$frame\t")), s"$run has no $frame line")
  }
}
