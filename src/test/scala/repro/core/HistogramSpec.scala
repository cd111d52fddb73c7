package repro.core

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
      dm.unpersist()
    }
  }

  test("clean's candidate weights are DuckDB's sums over the DistanceMatrix (range n = 2, n = 0, exact)") {
    // A third of the points share locations, so the exact join has pairs.
    val pts = TestPoints.df(spark, TestPoints.random(150, 300, 4, seed = 82, nullEvery = 9).map {
      case (id, x, y, v) if id % 3 == 0 => (id, math.floor(x / 60) * 60, math.floor(y / 60) * 60, v)
      case p => p
    })
    // Every erroneous cell's candidates are its own value and its neighbours'
    // values, each with its weight sum and the cell's total. Under kNN this
    // includes the cells flagged only as a conflict's r2.
    val sql =
      """WITH h AS (SELECT CAST(r1 AS BIGINT) AS id, v2 AS value, SUM(CAST(w AS DOUBLE)) AS nearW
        |           FROM dm WHERE v2 IS NOT NULL GROUP BY 1, 2),
        |     t AS (SELECT id, SUM(nearW) AS totalW FROM h GROUP BY id),
        |     e AS (SELECT CAST(id AS BIGINT) AS id FROM err),
        |     k AS (SELECT h.id, h.value FROM h JOIN e ON h.id = e.id
        |           UNION SELECT e.id, p.value FROM pts p JOIN e ON CAST(p.id AS BIGINT) = e.id
        |           WHERE p.value IS NOT NULL)
        |SELECT k.id AS id, k.value AS value, coalesce(h.nearW, 0) AS nearW, coalesce(t.totalW, 0) AS totalW
        |FROM k LEFT JOIN h ON k.id = h.id AND k.value = h.value LEFT JOIN t ON k.id = t.id
        |""".stripMargin
    for (c <- Seq(SpatialRange(70, PowerWeight(2)), SpatialRange(70, PowerWeight(0)), ExactLocation,
                  SpatialKnn(5, PowerWeight(2)))) {
      val r = Sparcle.clean(pts, SparcleParams(c, CandGenParams(minProb = 0.0)))
      assert(r.candidates.count() > 0, s"$c")
      Oracle.assertEquivalent(r.candidates.select("id", "value", "nearW", "totalW"), sql,
        "dm" -> DistanceMatrix.build(pts, c), "err" -> r.erroneous, "pts" -> pts)
    }
  }
}
