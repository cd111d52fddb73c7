package repro.core

import org.apache.spark.sql.DataFrame

import repro.{SparkSpec, TestPoints}
import repro.cleaning.HoloCleanLike

/** Properties of `clean` that must hold whatever the physical layout of the
  * input: the join lists each cell's copies by id, so a cell's neighbour
  * order, and with it every summation order, follows the input alone.
  */
class PipelinePropertiesSpec extends SparkSpec {

  private def repairs(df: DataFrame): Seq[(Long, String, String)] =
    df.collect().map(r => (r.getLong(0), r.getString(1), r.getString(2))).sortBy(_._1).toSeq

  /** Random points, a third of them piled on a coarse lattice (co-located). */
  private def sample(seed: Long): Seq[TestPoints.Pt] =
    TestPoints.random(300, 1500, 4, seed, nullEvery = 6).map { case p @ (id, x, y, v) =>
      if (id % 3 == 0) (id, math.floor(x / 300) * 300, math.floor(y / 300) * 300, v) else p
    }

  /** One input in four physical layouts: as given, one partition, seven
    * partitions, and rows shuffled.
    */
  private def layouts(raw: Seq[TestPoints.Pt], seed: Long): Seq[DataFrame] = Seq(
    TestPoints.df(spark, raw),
    TestPoints.df(spark, raw).repartition(1),
    TestPoints.df(spark, raw).repartition(7),
    TestPoints.df(spark, new scala.util.Random(seed).shuffle(raw)))

  test("repairs do not depend on input partitioning or row order") {
    for (seed <- Seq(101L, 102L)) {
      val layouts = this.layouts(sample(seed), seed)
      for (c <- Seq(SpatialRange(200, PowerWeight(2)), SpatialRange(120, PowerWeight(0)), ExactLocation)) {
        val all = layouts.map(pts => repairs(Sparcle.clean(pts, SparcleParams(c)).repairs))
        assert(all.head.nonEmpty, s"$c must repair something")
        all.tail.foreach(r => assert(r == all.head, s"$c, seed $seed"))
      }
      val holo = layouts.map(pts => repairs(HoloCleanLike.clean(pts).repairs))
      holo.tail.foreach(r => assert(r == holo.head, s"HoloCleanLike, seed $seed"))
    }
  }

  test("candidate scores are bit-identical whatever the input layout") {
    def bits(df: DataFrame): Seq[(Long, String, Seq[Long])] =
      df.select("id", "value", "nearW", "totalW", "normProb", "viol").collect()
        .map(r => (r.getLong(0), r.getString(1), (2 to 5).map(i => java.lang.Double.doubleToLongBits(r.getDouble(i)))))
        .sortBy(c => (c._1, c._2)).toSeq
    val cases: Seq[(String, DataFrame => DataFrame)] = Seq(
      ("SpatialRange n=2", Sparcle.clean(_, SparcleParams(SpatialRange(200, PowerWeight(2)))).candidates),
      ("SpatialRange n=0", Sparcle.clean(_, SparcleParams(SpatialRange(120, PowerWeight(0)))).candidates),
      ("ExactLocation", Sparcle.clean(_, SparcleParams(ExactLocation)).candidates),
      ("HoloCleanLike", HoloCleanLike.clean(_).candidates))
    // Per case, the candidates whose scores differ in some layout from the first.
    val differing = for (seed <- Seq(101L, 102L); (name, candidates) <- cases) yield {
      val all = layouts(sample(seed), seed).map(pts => bits(candidates(pts)))
      assert(all.head.nonEmpty, s"$name must keep candidates")
      assert(all.forall(_.map(c => (c._1, c._2)) == all.head.map(c => (c._1, c._2))), s"$name, seed $seed")
      s"$name, seed $seed" -> all.tail.flatMap(_.diff(all.head)).map(c => (c._1, c._2)).distinct.size
    }
    assert(differing.forall(_._2 == 0), differing.map { case (c, n) => s"$c: $n differ" }.mkString("; "))
  }

  test("repairs and candidate scores are bit-identical in 1, 3 and 16 input partitions: negative keys, ±0.0, a hotspot") {
    // Negative coordinates give exact-location keys with negative bit
    // patterns; a third of the background sits on a lattice, one of whose
    // locations also holds a hotspot of 150 records; four records sit at
    // 0.0 and −0.0, one location.
    val background = TestPoints.random(240, 1500, 4, seed = 109, nullEvery = 7).map { case (id, x, y, v) =>
      if (id % 3 == 0) (id, -math.floor(x / 300) * 300 - 0.5, -math.floor(y / 300) * 300, v) else (id, -x, -y, v)
    }
    val hotspot = (0 until 150).map(i => (1000L + i, -600.5, -900.0, Seq("v0", "v1", "v2", null)(i % 7 % 4)))
    val zeros = Seq((2001L, 0.0, 0.0, "v0"), (2002L, -0.0, -0.0, "v0"), (2003L, 0.0, -0.0, "v3"), (2004L, -0.0, 0.0, null))
    val raw = background ++ hotspot ++ zeros
    val frames = Seq(1, 3, 16).map { parts =>
      import spark.implicits._
      spark.sparkContext.parallelize(new scala.util.Random(parts).shuffle(raw), parts).toDF("id", "x", "y", "value")
    }
    def scores(df: DataFrame): Seq[(Long, String, Seq[Long])] =
      df.select("id", "value", "nearW", "sumW", "prob", "normProb", "totalW", "viol", "p", "fg").collect()
        .map(r => (r.getLong(0), r.getString(1), (2 to 9).map(i => java.lang.Double.doubleToRawLongBits(r.getDouble(i)))))
        .sortBy(c => (c._1, c._2)).toSeq
    for (c <- Seq(SpatialRange(200, PowerWeight(2)), ExactLocation, SpatialKnn(5, PowerWeight(2)))) {
      val results = frames.map(Sparcle.clean(_, SparcleParams(c)))
      val all = results.map(r => (repairs(r.repairs), scores(r.candidates)))
      assert(all.head._1.nonEmpty && all.head._2.nonEmpty, s"$c must repair something")
      all.tail.foreach(r => assert(r == all.head, s"$c"))
      if (c == ExactLocation) {
        val flagged = results.head.erroneous.collect().map(_.getLong(0)).toSet
        assert(Set(2001L, 2002L, 2003L).subsetOf(flagged), "0.0 and -0.0 are one location")
      }
    }
  }

  test("repairs touch only erroneous cells") {
    val pts = TestPoints.df(spark, sample(105L))
    def ids(df: DataFrame): Set[Long] = df.select("id").collect().map(_.getLong(0)).toSet
    val results =
      Seq(SpatialRange(200, PowerWeight(2)), ExactLocation, SpatialKnn(5, PowerWeight(2)))
        .map(c => c.toString -> Sparcle.clean(pts, SparcleParams(c))) :+
        ("HoloCleanLike" -> HoloCleanLike.clean(pts))
    for ((name, r) <- results) {
      val repaired = ids(r.repairs)
      assert(repaired.nonEmpty, s"$name must repair something")
      assert(repaired.subsetOf(ids(r.erroneous)), name)
    }
  }

  test("SpatialRange(d -> 0, n = 0) repairs as ExactLocation on co-located data") {
    for (seed <- Seq(103L, 104L)) {
      // Every record shares its location with others; distinct locations
      // are at least 1 m apart.
      val raw = TestPoints.random(240, 8, 3, seed, nullEvery = 5)
        .map { case (id, x, y, v) => (id, math.floor(x), math.floor(y), v) }
      val pts = TestPoints.df(spark, raw)
      val exact = repairs(Sparcle.clean(pts, SparcleParams(ExactLocation)).repairs)
      val tiny = repairs(Sparcle.clean(pts, SparcleParams(SpatialRange(1e-6, PowerWeight(0)))).repairs)
      assert(exact.nonEmpty)
      assert(tiny == exact, s"seed $seed")
    }
  }

  test("repairs do not depend on the record ids") {
    // kNN breaks distance ties by id, so its input has no co-located points.
    val cases: Seq[(String, Seq[TestPoints.Pt], DataFrame => DataFrame)] = Seq(
      ("SpatialRange n=2", sample(106L), Sparcle.clean(_, SparcleParams(SpatialRange(200, PowerWeight(2)))).repairs),
      ("ExactLocation", sample(106L), Sparcle.clean(_, SparcleParams(ExactLocation)).repairs),
      ("HoloCleanLike", sample(106L), HoloCleanLike.clean(_).repairs),
      ("SpatialKnn", TestPoints.random(300, 1500, 4, seed = 107, nullEvery = 6),
       Sparcle.clean(_, SparcleParams(SpatialKnn(5, PowerWeight(2)))).repairs))
    for ((name, raw, clean) <- cases) {
      val ids = raw.map(_._1)
      val relabel = ids.zip(new scala.util.Random(108).shuffle(ids.map(_ * 37 + 1000))).toMap
      val back = relabel.map(_.swap)
      val original = repairs(clean(TestPoints.df(spark, raw)))
      val relabelled = repairs(clean(TestPoints.df(spark, raw.map { case (id, x, y, v) => (relabel(id), x, y, v) })))
      assert(original.nonEmpty, s"$name must repair something")
      assert(relabelled.map { case (id, o, n) => (back(id), o, n) }.sortBy(_._1) == original, name)
    }
  }
}
