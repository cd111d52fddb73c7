package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types._
import org.scalacheck.Gen

import repro.{PropHelpers, SparkSpec, TestPoints}
import repro.cleaning.HoloCleanLike

/** The value statistics that a clean's reduce tasks merge from its join's
  * tallies equal those of `ValueStats.of`, its own pass over the input,
  * whatever the input's partitioning.
  */
class ValueStatsSpec extends SparkSpec with PropHelpers {

  private val schema = StructType(Seq(
    StructField("id", LongType), StructField("x", DoubleType),
    StructField("y", DoubleType), StructField("value", StringType)))

  private def frame(pts: Seq[TestPoints.Pt], partitions: Int): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(pts.map(p => Row(p._1, p._2, p._3, p._4)), partitions),
                          schema)

  /** The statistics every reduce task of `points`' join under `c` merges. */
  private def merged(points: DataFrame, c: SpatialConstraint): Seq[ValueStats] =
    DistanceMatrix.neighbours(points, c).reduceTasks(records => Iterator(ValueStats.of(records.tally))).collect().toSeq

  private def assertMergedAsOf(pts: Seq[TestPoints.Pt]): Unit =
    for (partitions <- Seq(1, 7, 16)) {
      val points = frame(pts, partitions)
      val expected = ValueStats.of(points)
      assert(expected.total == pts.size)
      for (c <- Seq(SpatialRange(150), ExactLocation, SpatialKnn(3))) {
        val got = merged(points, c)
        assert(got.nonEmpty)
        for (s <- got) {
          val at = s"$c, $partitions partitions, ${pts.size} records"
          assert(s.counts == expected.counts, at)
          assert(s.total == expected.total, at)
          assert(s.modal == expected.modal, at)
        }
      }
    }

  /** Up to 40 records at up to 12 locations, with 3 values and nulls, so
    * counts often tie.
    */
  private val inputs: Gen[Seq[TestPoints.Pt]] = for {
    n <- Gen.choose(2, 40)
    recs <- Gen.listOfN(n, for {
      loc <- Gen.choose(0, 11)
      v <- Gen.frequency(3 -> Gen.oneOf("a", "b", "c"), 1 -> Gen.const(null: String))
    } yield (loc * 97.0 % 400, loc * 31.0 % 300, v))
  } yield recs.zipWithIndex.map { case ((x, y, v), i) => (i.toLong, x, y, v) }

  test("the statistics each reduce task merges equal ValueStats.of, for 1, 7 and 16 input partitions") {
    forAllSeeded(inputs, n = 5)(assertMergedAsOf)
  }

  test("the merged statistics of an empty input and of a single record equal ValueStats.of") {
    assertMergedAsOf(Nil)
    assertMergedAsOf(Seq((1L, 0.0, 0.0, "a")))
    assertMergedAsOf(Seq((1L, 0.0, 0.0, null)))
  }

  test("the merged statistics break a tie in counts to the smallest value, as ValueStats.of does") {
    val pts = Seq((1L, 0.0, 0.0, "c"), (2L, 500.0, 0.0, "b"), (3L, 0.0, 500.0, "c"), (4L, 500.0, 500.0, "b"),
                  (5L, 900.0, 0.0, "a"))
    assert(ValueStats.of(frame(pts, 3)).modal == Some("b"))
    assertMergedAsOf(pts)
  }

  test("HoloCleanLike's fallback repairs take ValueStats.of's modal value") {
    // "c" and "b" tie at 3; the null cells have no co-located record.
    val pts = frame(Seq(
      (1L, 0.0, 0.0, "c"), (2L, 0.0, 0.0, "c"), (3L, 10.0, 0.0, "c"),
      (4L, 20.0, 0.0, "b"), (5L, 30.0, 0.0, "b"), (6L, 40.0, 0.0, "b"),
      (7L, 50.0, 0.0, null), (8L, 60.0, 0.0, null)), 3)
    val modal = ValueStats.of(pts).modal
    assert(modal == Some("b"))
    val repairs = HoloCleanLike.clean(pts).repairs.collect().map(r => r.getLong(0) -> r.getString(2)).toMap
    assert(repairs == Map(7L -> modal.get, 8L -> modal.get))
  }
}
