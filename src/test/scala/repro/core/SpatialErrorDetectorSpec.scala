package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestPoints}

class SpatialErrorDetectorSpec extends SparkSpec {

  private def ids(df: org.apache.spark.sql.DataFrame): Set[Long] =
    df.collect().map(_.getLong(0)).toSet

  test("a single conflicting pair flags both cells") {
    val pts = TestPoints.df(spark, Seq((1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "b")))
    val dm = DistanceMatrix.build(pts, SpatialRange(10))
    assert(ids(SpatialErrorDetector.erroneousCells(pts, dm)) == Set(1L, 2L))
  }

  test("agreeing neighbors are clean") {
    val pts = TestPoints.df(spark, Seq((1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "a")))
    val dm = DistanceMatrix.build(pts, SpatialRange(10))
    assert(ids(SpatialErrorDetector.erroneousCells(pts, dm)).isEmpty)
    assert(ids(pts) -- ids(SpatialErrorDetector.erroneousCells(pts, dm)) == Set(1L, 2L))
  }

  test("null cells are always erroneous, even without neighbors") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, null: String), (2L, 10000.0, 0.0, "a")))
    val dm = DistanceMatrix.build(pts, SpatialRange(10))
    assert(ids(SpatialErrorDetector.erroneousCells(pts, dm)) == Set(1L))
  }

  test("a null neighbor does not flag a non-null cell") {
    val pts = TestPoints.df(spark, Seq((1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, null: String)))
    val dm = DistanceMatrix.build(pts, SpatialRange(10))
    assert(ids(SpatialErrorDetector.erroneousCells(pts, dm)) == Set(2L))
  }

  test("paper example: r1..r6 erroneous, r7 clean (Fig. 3)") {
    val pts = PaperExampleFrames.points(spark)
    val dm = PaperExampleFrames.distanceMatrix(spark)
    val err = SpatialErrorDetector.erroneousCells(pts, dm)
    assert(ids(err) == Set(1L, 2L, 3L, 4L, 5L, 6L))
    assert(ids(pts) -- ids(err) == Set(7L))
  }

  test("detector ids are distinct even with many conflicts") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "b"), (3L, 2.0, 0.0, "c"), (4L, 3.0, 0.0, "a")))
    val dm = DistanceMatrix.build(pts, SpatialRange(100))
    val err = SpatialErrorDetector.erroneousCells(pts, dm)
    assert(err.count() == err.distinct().count())
    assert(ids(err) == Set(1L, 2L, 3L, 4L))
  }

  test("clean + erroneous partition the input cells") {
    val raw = TestPoints.random(200, 400, 3, seed = 31, nullEvery = 17)
    val pts = TestPoints.df(spark, raw)
    val dm = DistanceMatrix.build(pts, SpatialRange(60))
    val err = SpatialErrorDetector.erroneousCells(pts, dm)
    val clean = ids(pts) -- ids(err)
    assert(err.count() + clean.size == 200)
    assert(ids(err).subsetOf(ids(pts)))
  }

  test("detected set matches a DuckDB formulation of Algorithm 1") {
    val raw = TestPoints.random(120, 300, 3, seed = 32, nullEvery = 13)
    val pts = TestPoints.df(spark, raw)
    val d = 70.0
    val dm = DistanceMatrix.build(pts, SpatialRange(d))
    val sparkErr = SpatialErrorDetector.erroneousCells(pts, dm)
      .select(col("id").cast("long").as("id"))
    val dd = "(CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE)) * (CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE))" +
             " + (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE)) * (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE))"
    val sql =
      s"""SELECT DISTINCT id FROM (
         |  SELECT CAST(a.id AS BIGINT) AS id
         |  FROM pts a JOIN pts b ON a.id <> b.id
         |  WHERE sqrt($dd) < $d AND a.value IS NOT NULL AND b.value IS NOT NULL AND a.value <> b.value
         |  UNION ALL
         |  SELECT CAST(b.id AS BIGINT) AS id
         |  FROM pts a JOIN pts b ON a.id <> b.id
         |  WHERE sqrt($dd) < $d AND a.value IS NOT NULL AND b.value IS NOT NULL AND a.value <> b.value
         |  UNION ALL
         |  SELECT CAST(id AS BIGINT) AS id FROM pts WHERE value IS NULL
         |)
         |""".stripMargin
    Oracle.assertEquivalent(sparkErr, sql, "pts" -> pts)
  }

  test("ExactLocation detection only flags conflicting duplicates and nulls") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "a"), (2L, 0.0, 0.0, "b"),   // conflicting duplicates
      (3L, 5.0, 5.0, "a"), (4L, 5.0, 5.0, "a"),   // agreeing duplicates
      (5L, 9.0, 9.0, "zzz"),                       // wrong but un-duplicated: invisible
      (6L, 7.0, 7.0, null: String)))               // missing
    val dm = DistanceMatrix.build(pts, ExactLocation)
    assert(ids(SpatialErrorDetector.erroneousCells(pts, dm)) == Set(1L, 2L, 6L))
  }
}
