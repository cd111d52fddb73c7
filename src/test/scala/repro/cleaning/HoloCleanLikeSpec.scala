package repro.cleaning

import repro.{SparkSpec, TestPoints}
import repro.data.{AttrSpec, DatasetSpec, SpatialSynth}
import repro.eval.Metrics
import repro.geo.{Extent, RegionMap}

class HoloCleanLikeSpec extends SparkSpec {

  import spark.implicits._
  private implicit lazy val ss: org.apache.spark.sql.SparkSession = spark

  test("conflicting duplicates are repaired from the co-located majority") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "right"), (2L, 0.0, 0.0, "right"), (3L, 0.0, 0.0, "wrong")))
    val repairs = HoloCleanLike.clean(pts).repairs.collect()
      .map(r => r.getLong(0) -> r.getString(2)).toMap
    assert(repairs == Map(3L -> "right"))
  }

  test("wrong values at unique locations are invisible to exact constraints") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "a"), (2L, 50.0, 50.0, "zzz"), (3L, 90.0, 0.0, "a")))
    val r = HoloCleanLike.clean(pts)
    assert(r.erroneous.count() == 0)
    assert(r.repairs.count() == 0)
  }

  test("missing values with no duplicates fall back to the modal value") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "common"), (2L, 10.0, 0.0, "common"), (3L, 20.0, 0.0, "common"),
      (4L, 30.0, 0.0, "rare"), (5L, 99.0, 99.0, null: String)))
    val repairs = HoloCleanLike.clean(pts).repairs.collect()
      .map(r => r.getLong(0) -> r.getString(2)).toMap
    assert(repairs == Map(5L -> "common"))
  }

  test("missing values at duplicated locations use the co-located value, not the mode") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "common"), (2L, 10.0, 0.0, "common"), (3L, 20.0, 0.0, "common"),
      (4L, 50.0, 50.0, "rare"), (5L, 50.0, 50.0, null: String)))
    val repairs = HoloCleanLike.clean(pts).repairs.collect()
      .map(r => r.getLong(0) -> r.getString(2)).toMap
    assert(repairs.get(5L).contains("rare"))
  }

  test("a fully-null column yields no repairs instead of crashing") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, null: String), (2L, 10.0, 0.0, null: String)))
    assert(HoloCleanLike.clean(pts).repairs.count() == 0)
  }

  test("recall tracks the duplication ratio on synthetic data") {
    val extent = Extent(0, 0, 5000, 5000)
    def dataset(dupRatio: Double) = SpatialSynth.generate(DatasetSpec(
      s"holo-dup-$dupRatio", extent, nRecords = 600, dupShare = 0.4,
      attrs = Seq(AttrSpec("region", RegionMap.voronoi(extent, 4, "r", seed = 71),
                           errors = 60, dupRatio = dupRatio, missingShare = 0.3)),
      seed = 72))
    def recall(dupRatio: Double): Double = {
      val ds = dataset(dupRatio)
      Metrics.score(ds.points("region"), ds.truthFor("region"),
        HoloCleanLike.clean(ds.points("region")).repairs).recall
    }
    val r0 = recall(0.0)
    val r1 = recall(1.0)
    // A hotspot occasionally hosts two errors, muddying the co-located
    // majority — the paper's Fig. 6 likewise shows HoloClean recall slightly
    // below 1 at dup ratio 1.
    assert(r1 > 0.8, s"dup ratio 1 should be nearly fully repaired, got $r1")
    assert(r1 - r0 > 0.4, s"recall should rise steeply with dup ratio: r0=$r0 r1=$r1")
  }

  test("exact-duplicate agreement is not flagged") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "a"), (2L, 0.0, 0.0, "a")))
    assert(HoloCleanLike.clean(pts).erroneous.count() == 0)
  }

  test("repairs never invent values absent from the dataset") {
    val raw = TestPoints.random(300, 100, 3, seed = 73, nullEvery = 10)
    val pts = TestPoints.df(spark, raw)
    val values = raw.map(_._4).filter(_ != null).toSet
    val repairs = HoloCleanLike.clean(pts).repairs.select("newValue").as[String].collect()
    assert(repairs.forall(values.contains))
  }
}
