package repro.spatialjoin

import repro.{SparkSpec, TestPoints}

class KnnJoinSpec extends SparkSpec {

  private def run(pts: Seq[TestPoints.Pt], k: Int) = {
    val df = TestPoints.df(spark, pts)
    KnnJoin.rounds(df, k, Tally.of(df))
      .reduceTasks((_, _) => 1.0)(_.probes.flatMap { a =>
        List.tabulate(a.size)(i => (a.id, a.nbId(i), a.value, a.nbValue(i), a.dist(i), a.dk)) })
      .collect()
  }

  private def asSets(rows: Seq[(Long, Long, String, String, Double, Double)]) =
    rows.map { case (r1, r2, v1, v2, d, dk) =>
      (r1, r2, v1, v2,
       BigDecimal(d).setScale(6, BigDecimal.RoundingMode.HALF_UP),
       BigDecimal(dk).setScale(6, BigDecimal.RoundingMode.HALF_UP))
    }.toSet

  test("kNN join matches brute force on a random point set (k=5)") {
    val pts = TestPoints.random(n = 150, extent = 1000, nValues = 4, seed = 11)
    val got = run(pts, k = 5)
    assert(asSets(got.toIndexedSeq) == asSets(TestPoints.bruteKnn(pts, 5)))
  }

  test("kNN join matches brute force on a sparse set (k=3)") {
    val pts = TestPoints.random(n = 80, extent = 5000, nValues = 3, seed = 12)
    val got = run(pts, k = 3)
    assert(asSets(got.toIndexedSeq) == asSets(TestPoints.bruteKnn(pts, 3)))
  }

  test("kNN join matches brute force on a dense cluster plus sparse points") {
    // The first radius fits the cluster; the sparse points need more rounds.
    val cluster = TestPoints.random(n = 300, extent = 10, nValues = 3, seed = 18)
    val sparse = TestPoints.random(n = 60, extent = 20000, nValues = 3, seed = 19)
      .map { case (id, x, y, v) => (id + 300, x, y, v) }
    val pts = cluster ++ sparse
    val got = run(pts, k = 4)
    assert(asSets(got.toIndexedSeq) == asSets(TestPoints.bruteKnn(pts, 4)))
  }

  test("kNN join matches brute force with k=1") {
    val pts = TestPoints.random(n = 60, extent = 300, nValues = 3, seed = 13)
    val got = run(pts, k = 1)
    assert(asSets(got.toIndexedSeq) == asSets(TestPoints.bruteKnn(pts, 1)))
  }

  test("every point gets exactly k neighbors when enough points exist") {
    val pts = TestPoints.random(n = 50, extent = 200, nValues = 2, seed = 14)
    val got = run(pts, k = 7)
    val perPoint = got.groupBy(_._1).view.mapValues(_.length).toMap
    assert(perPoint.size == 50)
    assert(perPoint.values.forall(_ == 7))
  }

  test("k is clamped to n-1 when the dataset is smaller than k") {
    val pts = TestPoints.random(n = 6, extent = 100, nValues = 2, seed = 15)
    val got = run(pts, k = 50)
    val perPoint = got.groupBy(_._1).view.mapValues(_.length).toMap
    assert(perPoint.values.forall(_ == 5))
  }

  test("dk is the maximum distance among each point's selected neighbors") {
    val pts = TestPoints.random(n = 70, extent = 400, nValues = 3, seed = 16)
    val got = run(pts, k = 4)
    got.groupBy(_._1).foreach { case (_, rows) =>
      val dk = rows.head._6
      assert(rows.forall(_._6 == dk), "dk must be constant per probe")
      assert(math.abs(rows.map(_._5).max - dk) < 1e-9)
    }
  }

  test("kNN relation is asymmetric (a far outlier picks neighbors that do not pick it)") {
    // Cluster of 4 close points + 1 outlier: outlier's 2NN are cluster
    // members, but no cluster member counts the outlier among its 2NN.
    val pts = Seq(
      (1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "a"), (3L, 0.0, 1.0, "a"), (4L, 1.0, 1.0, "a"),
      (5L, 1000.0, 1000.0, "z"))
    val got = run(pts, k = 2)
    val fromOutlier = got.filter(_._1 == 5L)
    assert(fromOutlier.length == 2)
    assert(got.filter(_._1 != 5L).forall(_._2 != 5L))
  }

  test("ties are broken deterministically by record id") {
    // Two neighbors at identical distance; with k=1 the smaller id wins.
    val pts = Seq((1L, 0.0, 0.0, "a"), (2L, 10.0, 0.0, "b"), (3L, -10.0, 0.0, "c"))
    val got = run(pts, k = 1)
    val fromP1 = got.filter(_._1 == 1L)
    assert(fromP1.length == 1)
    assert(fromP1.head._2 == 2L)
  }

  test("single-point input yields no pairs") {
    val got = run(Seq((1L, 0.0, 0.0, "a")), k = 3)
    assert(got.isEmpty)
  }

  test("kNN join carries values, including nulls") {
    val pts = Seq((1L, 0.0, 0.0, null: String), (2L, 1.0, 0.0, "b"), (3L, 2.0, 0.0, "c"))
    val got = run(pts, k = 1)
    val fromP2 = got.filter(_._1 == 2L)
    assert(fromP2.length == 1 && fromP2.head._2 == 1L)
    assert(fromP2.head._3 == "b" && fromP2.head._4 == null)
  }

  test("kNN join is deterministic across runs") {
    val pts = TestPoints.random(n = 90, extent = 800, nValues = 3, seed = 17)
    val a = run(pts, k = 4).sortBy(r => (r._1, r._2))
    val b = run(pts, k = 4).sortBy(r => (r._1, r._2))
    assert(a.toSeq == b.toSeq)
  }

  test("invalid arguments are rejected") {
    val pts = TestPoints.df(spark, Seq((1L, 0.0, 0.0, "a")))
    intercept[IllegalArgumentException](KnnJoin.rounds(pts, 0, Tally.of(pts)))
  }
}
