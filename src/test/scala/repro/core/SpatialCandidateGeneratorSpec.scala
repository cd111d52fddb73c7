package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestPoints}

class SpatialCandidateGeneratorSpec extends SparkSpec {

  import spark.implicits._

  private def gen(pts: Seq[TestPoints.Pt], d: Double,
                  params: CandGenParams = CandGenParams()) = {
    val df = TestPoints.df(spark, pts)
    val dm = DistanceMatrix.build(df, SpatialRange(d))
    val err = SpatialErrorDetector.erroneousCells(df, dm)
    (df, dm, err, SpatialCandidateGenerator.generate(df, dm, err, params))
  }

  test("candidates include every nearby value plus the original") {
    val pts = Seq(
      (1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "b"), (3L, 2.0, 0.0, "c"))
    val (_, _, _, res) = gen(pts, d = 10, CandGenParams(minProb = 0.0))
    val c1 = res.candidates.where($"id" === 1L).select("value").as[String].collect().toSet
    assert(c1 == Set("a", "b", "c"))
  }

  test("original value gets the 0.01 default weight only when absent nearby") {
    val pts = Seq(
      (1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "b"), (3L, 2.0, 0.0, "a"))
    val (_, _, _, res) = gen(pts, d = 10, CandGenParams(minProb = 0.0))
    val r1 = res.candidates.where($"id" === 1L)
      .collect().map(r => r.getAs[String]("value") -> r.getAs[Double]("sumW")).toMap
    // Record 3 ("a") sits 2 m away: weight (1 - 2/10)² = 0.64, not the default.
    assert(math.abs(r1("a") - 0.64) < 1e-9, "original co-occurs nearby: real weight, not default")
    val r2 = res.candidates.where($"id" === 2L)
      .collect().map(r => r.getAs[String]("value") -> r.getAs[Double]("sumW")).toMap
    assert(r2("b") == 0.01, "original absent nearby: default weight")
  }

  test("null cells draw candidates purely from neighbors") {
    val pts = Seq(
      (1L, 0.0, 0.0, null: String), (2L, 1.0, 0.0, "b"), (3L, 2.0, 0.0, "b"))
    val (_, _, _, res) = gen(pts, d = 10)
    val c1 = res.candidates.where($"id" === 1L).select("value").as[String].collect().toSet
    assert(c1 == Set("b"))
    // Single candidate ⇒ Phase 3 labels the cell.
    val labels = res.labels.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    assert(labels.get(1L).contains("b"))
  }

  test("isolated null cells produce no candidates and stay erroneous") {
    val pts = Seq((1L, 0.0, 0.0, null: String), (2L, 10000.0, 0.0, "b"))
    val (_, _, _, res) = gen(pts, d = 10)
    assert(res.candidates.where($"id" === 1L).count() == 0)
    assert(res.remaining.as[Long].collect().toSet == Set(1L))
    assert(res.labels.count() == 0)
  }

  test("normProb sums to 1 per cell before the cutoff") {
    val pts = TestPoints.random(120, 200, 4, seed = 41, nullEvery = 11)
    val (_, _, _, res) = gen(pts, d = 50, CandGenParams(minProb = 0.0, maxProb = 2.0))
    val sums = res.candidates.groupBy("id").agg(sum("normProb").as("s"))
      .select("s").as[Double].collect()
    assert(sums.nonEmpty)
    sums.foreach(s => assert(math.abs(s - 1.0) < 1e-9))
  }

  test("MinProb cutoff removes marginal candidates but never the best one") {
    val pts = TestPoints.random(150, 200, 5, seed = 42)
    val (_, _, _, res) = gen(pts, d = 60, CandGenParams(minProb = 0.9, maxProb = 2.0))
    // With an absurd MinProb, each cell keeps exactly its top candidate.
    val counts = res.candidates.groupBy("id").count().select("count").as[Long].collect()
    assert(counts.nonEmpty)
    assert(counts.forall(_ == 1L))
  }

  test("MaxProb=0 labels every cell with its top candidate") {
    val pts = TestPoints.random(100, 150, 3, seed = 43)
    val (_, _, err, res) = gen(pts, d = 50, CandGenParams(minProb = 0.0, maxProb = 0.0))
    assert(res.labels.count() == err.count())
    assert(res.remaining.count() == 0)
  }

  test("MaxProb>1 labels only single-candidate cells") {
    val pts = Seq(
      (1L, 0.0, 0.0, null: String), (2L, 1.0, 0.0, "b"),
      (3L, 100.0, 0.0, "x"), (4L, 101.0, 0.0, "y"))
    val (_, _, _, res) = gen(pts, d = 10, CandGenParams(minProb = 0.0, maxProb = 2.0))
    val labeled = res.labels.select("id").as[Long].collect().toSet
    assert(labeled == Set(1L)) // the null cell with one neighbor value
  }

  test("labels always carry the top-probability candidate") {
    val pts = TestPoints.random(200, 200, 3, seed = 44, nullEvery = 7)
    val (_, _, _, res) = gen(pts, d = 60, CandGenParams(minProb = 0.0, maxProb = 0.5))
    val top = res.candidates.withColumn("rk",
        row_number().over(org.apache.spark.sql.expressions.Window
          .partitionBy("id").orderBy($"normProb".desc, $"value")))
      .where($"rk" === 1).select($"id", $"value".as("top"))
    val joined = res.labels.join(top, Seq("id"))
    assert(joined.count() == res.labels.count())
    assert(joined.where($"label" =!= $"top").count() == 0)
  }

  test("remaining + labeled = erroneous") {
    val pts = TestPoints.random(150, 180, 3, seed = 45, nullEvery = 9)
    val (_, _, err, res) = gen(pts, d = 40)
    assert(res.remaining.count() + res.labels.count() == err.count())
    val overlap = res.remaining.join(res.labels, Seq("id")).count()
    assert(overlap == 0)
  }

  test("phase-1 weighted counts match a DuckDB aggregation") {
    val raw = TestPoints.random(90, 150, 3, seed = 46)
    val df = TestPoints.df(spark, raw)
    val d = 40.0
    val dm = DistanceMatrix.build(df, SpatialRange(d)).persist()
    val err = SpatialErrorDetector.erroneousCells(df, dm)
    val res = SpatialCandidateGenerator.generate(df, dm, err, CandGenParams(minProb = 0.0))
    val sparkAgg = res.candidates.where($"nearW" > 0)
      .select($"id", $"value", round($"nearW", 4).as("nw"))
    val sql =
      """SELECT CAST(m.r1 AS BIGINT) AS id, m.v2 AS value, round(sum(CAST(m.w AS DOUBLE)), 4) AS nw
        |FROM dm m JOIN err e ON m.r1 = e.id
        |WHERE m.v2 IS NOT NULL
        |GROUP BY m.r1, m.v2
        |""".stripMargin
    Oracle.assertEquivalent(sparkAgg, sql, "dm" -> dm, "err" -> err)
    dm.unpersist()
  }

  test("empty erroneous set yields empty outputs") {
    val pts = Seq((1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "a"))
    val df = TestPoints.df(spark, pts)
    val dm = DistanceMatrix.build(df, SpatialRange(10))
    val err = SpatialErrorDetector.erroneousCells(df, dm)
    val res = SpatialCandidateGenerator.generate(df, dm, err)
    assert(res.candidates.count() == 0)
    assert(res.labels.count() == 0)
    assert(res.remaining.count() == 0)
  }
}
