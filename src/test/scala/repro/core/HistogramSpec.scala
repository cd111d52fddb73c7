package repro.core

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestPoints}

class HistogramSpec extends SparkSpec {

  private val sql =
    """SELECT CAST(r1 AS BIGINT) AS id, v1, v2 AS value, SUM(CAST(w AS DOUBLE)) AS nearW
      |FROM dm WHERE v2 IS NOT NULL GROUP BY 1, 2, 3
      |""".stripMargin

  test("hist matches DuckDB's aggregation of the DistanceMatrix, range and kNN") {
    val pts = TestPoints.df(spark, TestPoints.random(120, 300, 4, seed = 81, nullEvery = 9))
    for (c <- Seq(SpatialRange(70, PowerWeight(2)), SpatialKnn(5, PowerWeight(2)))) {
      val dm = DistanceMatrix.build(pts, c).persist()
      Oracle.assertEquivalent(Histogram.of(dm), sql, "dm" -> dm)
      // The pipeline's input adds only own-value rows without neighbour weight.
      Oracle.assertEquivalent(Histogram.withOwn(dm, pts).where(col("nearW").isNotNull), sql, "dm" -> dm)
      dm.unpersist()
    }
  }

  test("withOwn adds one row per non-null cell for its own value") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "b"), (3L, 500.0, 0.0, null: String)))
    val rows = Histogram.withOwn(DistanceMatrix.build(pts, SpatialRange(10)), pts).collect()
      .map(r => (r.getAs[Long]("id"), Option(r.getAs[String]("value")),
                 Option(r.getAs[java.lang.Double]("nearW")).map(_.doubleValue))).toSet
    assert(rows == Set(
      (1L, Some("a"), None), (1L, Some("b"), Some(0.81)),
      (2L, Some("b"), None), (2L, Some("a"), Some(0.81))))
  }
}
