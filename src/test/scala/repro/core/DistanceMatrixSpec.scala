package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestPoints}

class DistanceMatrixSpec extends SparkSpec {

  test("range DistanceMatrix has the contract schema") {
    val pts = TestPoints.df(spark, TestPoints.random(30, 100, 3, seed = 21))
    val dm = DistanceMatrix.build(pts, SpatialRange(50))
    assert(dm.columns.toSeq == Seq("r1", "r2", "v1", "v2", "dist", "w"))
  }

  test("range DistanceMatrix weights equal the scalar weight function") {
    val pts = TestPoints.random(100, 500, 3, seed = 22)
    val w = PowerWeight(2)
    val dm = DistanceMatrix.build(TestPoints.df(spark, pts), SpatialRange(200, w)).collect()
    assert(dm.nonEmpty)
    dm.foreach { r =>
      assert(math.abs(r.getDouble(5) - w.weight(r.getDouble(4), 200)) < 1e-9)
    }
  }

  test("range DistanceMatrix with n=0 weighs every pair 1") {
    val pts = TestPoints.random(80, 300, 3, seed = 23)
    val dm = DistanceMatrix.build(TestPoints.df(spark, pts), SpatialRange(150, PowerWeight(0)))
    assert(dm.where(col("w") =!= 1.0).count() == 0)
    assert(dm.count() > 0)
  }

  test("range DistanceMatrix weighted aggregate matches DuckDB") {
    val pts = TestPoints.random(70, 250, 3, seed = 24)
    val d = 100.0
    val dm = DistanceMatrix.build(TestPoints.df(spark, pts), SpatialRange(d, PowerWeight(2)))
    val sparkAgg = dm.groupBy("r1").agg(round(sum("w"), 4).as("sw"))
      .select(col("r1"), col("sw"))
    val dd = "(CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE)) * (CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE))" +
             " + (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE)) * (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE))"
    val sql =
      s"""SELECT CAST(a.id AS BIGINT) AS r1,
         |       round(sum((1 - sqrt($dd)/$d) * (1 - sqrt($dd)/$d)), 4) AS sw
         |FROM pts a JOIN pts b ON a.id <> b.id
         |WHERE sqrt($dd) < $d
         |GROUP BY a.id
         |""".stripMargin
    Oracle.assertEquivalent(sparkAgg, sql, "pts" -> TestPoints.df(spark, pts))
  }

  test("kNN DistanceMatrix weights use the kth-neighbor distance as d") {
    val pts = TestPoints.random(60, 400, 3, seed = 25)
    val w = PowerWeight(2)
    val dm = DistanceMatrix.build(
      TestPoints.df(spark, pts), SpatialKnn(4, w)).collect()
    val brute = TestPoints.bruteKnn(pts, 4)
      .map { case (r1, r2, _, _, dist, dk) => ((r1, r2), (dist, dk)) }.toMap
    assert(dm.length == brute.size)
    dm.foreach { r =>
      val (dist, dk) = brute((r.getLong(0), r.getLong(1)))
      assert(math.abs(r.getDouble(4) - dist) < 1e-9)
      val expW = if (dk == 0) 1.0 else w.weight(dist, dk)
      assert(math.abs(r.getDouble(5) - expW) < 1e-9, s"pair ${r.getLong(0)}->${r.getLong(1)}")
    }
  }

  test("kNN DistanceMatrix is exact on an extent wider than 200 km") {
    val pts = Seq((1L, 0.0, 0.0, "a"), (2L, 300000.0, 0.0, "b"), (3L, 300001.0, 0.0, "c"))
    val dm = DistanceMatrix.build(TestPoints.df(spark, pts), SpatialKnn(1)).collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(4))).toSet
    assert(dm == TestPoints.bruteKnn(pts, 1).map(p => (p._1, p._2, p._5)).toSet)
  }

  test("kNN DistanceMatrix gives weight 1 when all k neighbors are co-located") {
    val pts = Seq((1L, 0.0, 0.0, "a"), (2L, 0.0, 0.0, "b"), (3L, 0.0, 0.0, "c"))
    val dm = DistanceMatrix.build(
      TestPoints.df(spark, pts), SpatialKnn(2, PowerWeight(2)))
    assert(dm.count() == 6)
    assert(dm.where(col("w") =!= 1.0).count() == 0)
  }

  test("ExactLocation DistanceMatrix joins only identical coordinates with weight 1") {
    val pts = Seq(
      (1L, 1.0, 1.0, "a"), (2L, 1.0, 1.0, "b"), (3L, 2.0, 2.0, "c"))
    val dm = DistanceMatrix.build(TestPoints.df(spark, pts), ExactLocation).collect()
    assert(dm.length == 2)
    assert(dm.forall(_.getDouble(5) == 1.0))
    assert(dm.forall(_.getDouble(4) == 0.0))
  }

  test("the kth neighbor itself gets weight 0 under n>0 (paper's kNN semantics)") {
    val pts = Seq((1L, 0.0, 0.0, "a"), (2L, 10.0, 0.0, "b"), (3L, 30.0, 0.0, "c"))
    val dm = DistanceMatrix.build(
      TestPoints.df(spark, pts), SpatialKnn(2, PowerWeight(2)))
    val fromP1 = dm.where(col("r1") === 1).orderBy("dist").collect()
    assert(fromP1.length == 2)
    assert(fromP1(1).getDouble(5) == 0.0) // farthest of the k
    assert(fromP1(0).getDouble(5) > 0.0)
  }

  test("a clean's dm, built on first read, is DistanceMatrix.build's relation row for row") {
    // A third of the points share a lattice location, so ExactLocation has pairs.
    val raw = TestPoints.random(150, 500, 3, seed = 27, nullEvery = 5).map { case p @ (id, x, y, v) =>
      if (id % 3 == 0) (id, math.floor(x / 100) * 100, math.floor(y / 100) * 100, v) else p }
    val pts = TestPoints.df(spark, raw)
    def rows(dm: DataFrame) =
      dm.collect().map(_.toSeq).sortBy(r => (r(0).asInstanceOf[Long], r(1).asInstanceOf[Long])).toSeq
    for (c <- Seq(SpatialRange(80, PowerWeight(2)), ExactLocation, SpatialKnn(4, PowerWeight(2)))) {
      val dm = Sparcle.clean(pts, SparcleParams(c)).dm
      assert(dm.columns.toSeq == Seq("r1", "r2", "v1", "v2", "dist", "w"), c.toString)
      val expected = rows(DistanceMatrix.build(pts, c))
      assert(expected.nonEmpty, c.toString)
      assert(rows(dm) == expected, c.toString)
    }
  }
}
