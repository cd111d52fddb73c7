package repro.cleaning

import repro.{Oracle, SparkSpec, TestPoints}
import repro.data.{AttrSpec, DatasetSpec, SpatialSynth}
import repro.eval.Metrics
import repro.geo.{Extent, RegionMap}

class BaranLikeSpec extends SparkSpec {

  import spark.implicits._
  private implicit lazy val ss: org.apache.spark.sql.SparkSession = spark

  private def truthDf(pts: Seq[(Long, String)]) = pts.toDF("id", "value")

  private val roomyBudget = BaranParams(memoryBudget = 10000000L, timeoutBudget = 20000000L)

  test("exact co-located majority vote repairs flagged duplicates") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "right"), (2L, 0.0, 0.0, "right"), (3L, 0.0, 0.0, "wrong")))
    val truth = truthDf(Seq(1L -> "right", 2L -> "right", 3L -> "right"))
    val repairs = BaranLike.clean(pts, truth, roomyBudget.copy(pFalseAlarm = 0.0, pDetect = 1.0))
      .collect().map(r => r.getLong(0) -> r.getString(2)).toMap
    assert(repairs == Map(3L -> "right"))
  }

  test("co-located vote matches DuckDB's per-location majority, ties to the smallest value") {
    // 24 lattice locations of 10 records each; every truth is "a", so each
    // "b", "c" or null cell is flagged, and no labels are sampled.
    val rng = new scala.util.Random(89)
    val raw = (0L until 240L).map { i =>
      val v = if (i % 11 == 10) null else Seq("a", "b", "c")(rng.nextInt(3))
      (i, (i % 24 % 6) * 100.0, (i % 24 / 6) * 100.0, v)
    }
    val tied = raw.filter(_._4 != "a").count { p =>
      val votes = raw.filter(o => o._1 != p._1 && o._2 == p._2 && o._3 == p._3 && o._4 != null)
        .groupBy(_._4).values.map(_.size).toSeq.sorted.reverse
      votes.size > 1 && votes(0) == votes(1)
    }
    assert(tied > 0, "the input must hold flagged records with tied votes")
    val pts = TestPoints.df(spark, raw)
    val truth = truthDf(raw.map(p => p._1 -> "a"))
    val repairs = BaranLike.clean(pts, truth, roomyBudget.copy(pDetect = 1.0, pFalseAlarm = 0.0, nSamples = 0))
    val sql =
      """WITH p AS (SELECT CAST(id AS BIGINT) AS id, CAST(x AS DOUBLE) AS x, CAST(y AS DOUBLE) AS y, value
        |           FROM pts),
        |     e AS (SELECT a.id AS r1, b.value AS v2 FROM p a JOIN p b
        |           ON a.x = b.x AND a.y = b.y AND a.id <> b.id WHERE b.value IS NOT NULL),
        |     f AS (SELECT p.id, p.value,
        |                  (SELECT v2 FROM e WHERE e.r1 = p.id
        |                   GROUP BY r1, v2 ORDER BY count(*) DESC, v2 ASC LIMIT 1) AS vote
        |           FROM p JOIN truth t ON CAST(t.id AS BIGINT) = p.id
        |           WHERE p.value IS NULL OR t.value IS NULL OR p.value <> t.value)
        |SELECT id, value AS oldValue, vote AS newValue FROM f
        |WHERE vote IS NOT NULL AND (value IS NULL OR value <> vote)
        |""".stripMargin
    assert(repairs.count() > 0)
    Oracle.assertEquivalent(repairs, sql, "pts" -> pts, "truth" -> truth)
  }

  test("value model transfers the dominant sampled correction") {
    // 30 wrong cells whose truth is overwhelmingly "Austin": the sampled
    // labels make the value model predict "Austin" for unseen flagged errors.
    val n = 200
    val pts = (0L until n).map { i =>
      val v = if (i < 30) "wrongtown" else "Austin"
      (i, i * 10.0, 0.0, v)
    }
    val truth = truthDf((0L until n).map(i => i -> "Austin"))
    val repairs = BaranLike.clean(TestPoints.df(spark, pts), truth,
        roomyBudget.copy(pDetect = 1.0, pFalseAlarm = 0.0))
      .collect().map(r => r.getLong(0) -> r.getString(2)).toMap
    assert(repairs.nonEmpty)
    assert(repairs.values.toSet == Set("Austin"))
    assert(repairs.keys.forall(_ < 30))
  }

  test("value model stays silent when no sampled correction dominates") {
    // Errors whose truths are spread over many values: the modal sampled
    // correction falls below the confidence threshold -> no blind guessing.
    val n = 300
    val truths = (0L until n).map(i => i -> s"z${i % 40}")
    val pts = (0L until n).map { i =>
      val t = s"z${i % 40}"
      val v = if (i < 60) s"z${(i + 7) % 40}" else t // 60 wrong values
      (i, i * 10.0, 0.0, v)
    }
    val repairs = BaranLike.clean(TestPoints.df(spark, pts), truthDf(truths),
      roomyBudget.copy(pDetect = 1.0, pFalseAlarm = 0.0, confThreshold = 0.3))
    assert(repairs.count() == 0)
  }

  test("detector is deterministic in the seed") {
    val extent = Extent(0, 0, 2000, 2000)
    val ds = SpatialSynth.generate(DatasetSpec(
      "baran-det", extent, 300, 0.0,
      Seq(AttrSpec("region", RegionMap.voronoi(extent, 3, "r", 81), 40, 0.0, 0.3)), 82))
    val a = BaranLike.clean(ds.points("region"), ds.truthFor("region"), roomyBudget)
      .orderBy("id").collect().map(_.toSeq).toSeq
    val b = BaranLike.clean(ds.points("region"), ds.truthFor("region"), roomyBudget)
      .orderBy("id").collect().map(_.toSeq).toSeq
    assert(a == b)
  }

  test("memory budget aborts on datasets beyond the in-memory model size") {
    val pts = TestPoints.df(spark, TestPoints.random(500, 1000, 3, seed = 83))
    val truth = truthDf((0L until 500L).map(i => i -> "v0"))
    intercept[BaranMemoryError] {
      BaranLike.clean(pts, truth, BaranParams(memoryBudget = 1000, timeoutBudget = 100000))
    }
  }

  test("timeout budget aborts before the memory check on the largest inputs") {
    val pts = TestPoints.df(spark, TestPoints.random(500, 1000, 3, seed = 84))
    val truth = truthDf((0L until 500L).map(i => i -> "v0"))
    intercept[BaranTimeoutError] {
      BaranLike.clean(pts, truth, BaranParams(memoryBudget = 500, timeoutBudget = 1000))
    }
  }

  test("default budgets: passes at Austin scale, dies at Chicago/NYC scale") {
    def ptsOf(n: Int) = TestPoints.df(spark, TestPoints.random(n, 1000, 3, seed = 85))
    def truthOf(n: Int) = truthDf((0L until n.toLong).map(i => i -> "v0"))
    // 8K records (Austin stand-in): runs.
    BaranLike.clean(ptsOf(8000), truthOf(8000), BaranParams(pDetect = 0.0, pFalseAlarm = 0.0))
    // 24K records (Chicago stand-in): memory error.
    intercept[BaranMemoryError] {
      BaranLike.clean(ptsOf(24000), truthOf(24000), BaranParams())
    }
    // 40K records (NYC stand-in): projected-runtime error.
    intercept[BaranTimeoutError] {
      BaranLike.clean(ptsOf(40000), truthOf(40000), BaranParams())
    }
  }

  test("clean leaves no persisted RDDs behind") {
    val sc = spark.sparkContext
    val pts = TestPoints.df(spark, TestPoints.random(200, 1000, 3, seed = 88))
    val truth = truthDf((0L until 200L).map(i => i -> "v1"))
    val before = sc.getPersistentRDDs.keySet.toSet
    BaranLike.clean(pts, truth, roomyBudget).collect()
    assert((sc.getPersistentRDDs.keySet.toSet -- before).isEmpty)
  }

  test("false alarms can cause wrong repairs on clean cells (precision cost)") {
    val n = 400
    val pts = (0L until n).map(i => (i, i * 5.0, 0.0, if (i < 390) "A" else "B"))
    val truth = truthDf((0L until n).map(i => i -> (if (i < 390) "A" else "B")))
    val repairs = BaranLike.clean(TestPoints.df(spark, pts), truth,
      roomyBudget.copy(pDetect = 1.0, pFalseAlarm = 1.0))
    // Every cell is flagged; the value model (no errors sampled => no labels)
    // cannot fire, and there are no duplicates: no repairs possible.
    assert(repairs.count() == 0)
  }

  test("Baran-like beats nothing but loses to spatial awareness on no-dup data") {
    val extent = Extent(0, 0, 4000, 4000)
    val ds = SpatialSynth.generate(DatasetSpec(
      "baran-vs", extent, 500, 0.0,
      Seq(AttrSpec("region",
        RegionMap.dominant(extent, 5, "big", "s", dominantShare = 0.8, seed = 86),
        60, 0.0, 0.0)), 87))
    val b = Metrics.score(ds.points("region"), ds.truthFor("region"),
      BaranLike.clean(ds.points("region"), ds.truthFor("region"), roomyBudget))
    // The dominant value model repairs roughly the errors whose truth is the
    // dominant label (~80%), with high precision.
    assert(b.recall > 0.4 && b.recall < 0.95, s"got $b")
    assert(b.precision > 0.7, s"got $b")
  }
}
