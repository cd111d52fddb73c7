package repro.core

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestPoints}
import repro.cleaning.HoloCleanLike
import repro.data.{AttrSpec, DatasetSpec, SpatialSynth}
import repro.eval.Metrics
import repro.geo.{Extent, RegionMap}

class SparclePipelineSpec extends SparkSpec {

  import spark.implicits._

  private implicit lazy val ss: org.apache.spark.sql.SparkSession = spark

  private lazy val smallDataset = {
    val extent = Extent(0, 0, 5000, 5000)
    SpatialSynth.generate(DatasetSpec(
      "pipeline-test", extent, nRecords = 800, dupShare = 0.0,
      attrs = Seq(AttrSpec("region", RegionMap.voronoi(extent, 4, "r", seed = 61),
                           errors = 80, dupRatio = 0.0, missingShare = 0.5)),
      seed = 62))
  }

  private lazy val result = Sparcle.clean(
    smallDataset.points("region"),
    SparcleParams(SpatialRange(700, PowerWeight(2))))

  test("pipeline repairs most injected errors on a spatial dataset with zero duplicates") {
    val s = Metrics.score(smallDataset.points("region"), smallDataset.truthFor("region"), result.repairs)
    assert(s.errors == 80, s"expected the injected error count, got ${s.errors}")
    assert(s.recall > 0.8, s"recall too low: $s")
    assert(s.precision > 0.8, s"precision too low: $s")
  }

  test("repairs only list actual changes") {
    val joined = result.repairs
      .join(smallDataset.points("region").withColumnRenamed("value", "orig"), Seq("id"))
    assert(joined.where($"orig".isNotNull && $"orig" === $"newValue").count() == 0)
    assert(joined.where(coalesce($"oldValue", lit("∅")) =!= coalesce($"orig", lit("∅"))).count() == 0)
  }

  test("repaired values come from the candidate lists or labels") {
    val fromCands = result.candidates.select($"id", $"value".as("newValue"))
      .unionByName(result.labels.select($"id", $"label".as("newValue")))
      .distinct()
    assert(result.repairs.join(fromCands, Seq("id", "newValue"), "left_anti").count() == 0)
  }

  test("all detected erroneous cells are genuine or boundary-adjacent") {
    // Detection over-approximates (both sides of a conflict are flagged);
    // it must at least cover every true error that has any in-range neighbor.
    val truthDf = smallDataset.truthFor("region").withColumnRenamed("value", "truthValue")
    val trueErrors = smallDataset.points("region").join(truthDf, Seq("id"))
      .where($"value".isNull || $"value" =!= $"truthValue").select("id")
    val withNeighbors = result.dm.select($"r1".as("id")).distinct()
    val coveredOrIsolated = trueErrors
      .join(result.erroneous, Seq("id"), "left_anti")  // true errors NOT flagged...
      .join(withNeighbors, Seq("id"))                  // ...that do have neighbors
    assert(coveredOrIsolated.count() == 0,
      "every non-isolated true error must be detected")
  }

  test("distance weighting (n=2) beats no weighting (n=0) on boundary-heavy data") {
    val n0 = Sparcle.clean(smallDataset.points("region"),
      SparcleParams(SpatialRange(700, PowerWeight(0))))
    val s2 = Metrics.score(smallDataset.points("region"), smallDataset.truthFor("region"), result.repairs)
    val s0 = Metrics.score(smallDataset.points("region"), smallDataset.truthFor("region"), n0.repairs)
    assert(s2.f1 >= s0.f1 - 0.02,
      s"n=2 (${s2.f1}) should not lose clearly to n=0 (${s0.f1})")
  }

  test("kNN constraint cleans the same dataset comparably to range") {
    val knn = Sparcle.clean(smallDataset.points("region"),
      SparcleParams(SpatialKnn(8, PowerWeight(2))))
    val s = Metrics.score(smallDataset.points("region"), smallDataset.truthFor("region"), knn.repairs)
    assert(s.recall > 0.7, s"kNN recall too low: $s")
    assert(s.precision > 0.7, s"kNN precision too low: $s")
  }

  test("d=0-like degenerate constraint (ExactLocation) repairs nothing without duplicates") {
    val exact = Sparcle.clean(smallDataset.points("region"), SparcleParams(ExactLocation))
    val s = Metrics.score(smallDataset.points("region"), smallDataset.truthFor("region"), exact.repairs)
    assert(s.recall == 0.0, s"no duplicates -> no exact-co-occurrence repairs: $s")
  }

  test("pipeline is deterministic") {
    val again = Sparcle.clean(smallDataset.points("region"),
      SparcleParams(SpatialRange(700, PowerWeight(2))))
    val a = result.repairs.orderBy("id").collect().map(_.toSeq).toSeq
    val b = again.repairs.orderBy("id").collect().map(_.toSeq).toSeq
    assert(a == b)
  }

  test("clean data passes through with no repairs") {
    val pts = TestPoints.df(spark,
      Seq((1L, 0.0, 0.0, "a"), (2L, 10.0, 0.0, "a"), (3L, 5000.0, 5000.0, "b")))
    val r = Sparcle.clean(pts, SparcleParams(SpatialRange(100)))
    assert(r.erroneous.count() == 0)
    assert(r.repairs.count() == 0)
  }

  test("kNN: a cell flagged only as a conflict's r2 is erroneous and labeled with its own value") {
    // k = 1: a and b are each other's nearest neighbour and agree; c's nearest
    // neighbour is b, and the conflict (c, b) flags b only from c's side.
    val pts = TestPoints.df(spark,
      Seq((1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "a"), (3L, 3.0, 0.0, "b")))
    val r = Sparcle.clean(pts, SparcleParams(SpatialKnn(1, PowerWeight(2))))
    assert(r.erroneous.as[Long].collect().toSet == Set(2L, 3L))
    val labels = r.labels.collect().map(l => l.getLong(0) -> l.getString(1)).toMap
    assert(labels.get(2L).contains("a"))
    assert(r.candidates.where($"id" === 2L).select("value").as[String].collect().toSeq == Seq("a"))
    assert(r.repairs.where($"id" === 2L).count() == 0)
  }

  test("empty input yields empty outputs") {
    val pts = TestPoints.df(spark, Seq.empty)
    for (c <- Seq(SpatialRange(100), ExactLocation, SpatialKnn(3))) {
      val r = Sparcle.clean(pts, SparcleParams(c))
      assert(r.repairs.count() == 0)
      assert(r.erroneous.count() == 0)
    }
    assert(HoloCleanLike.clean(pts).repairs.count() == 0)
  }

  test("clean leaves no persisted RDDs behind") {
    val sc = spark.sparkContext
    val pts = smallDataset.points("region")
    def leaves(run: => SparcleResult): Set[Int] = {
      val before = sc.getPersistentRDDs.keySet.toSet
      val r = run
      Seq(r.repairs, r.erroneous, r.candidates, r.labels).foreach(_.collect())
      sc.getPersistentRDDs.keySet.toSet -- before
    }
    assert(leaves(Sparcle.clean(pts, SparcleParams(SpatialRange(700, PowerWeight(2))))).isEmpty)
    assert(leaves(Sparcle.clean(pts, SparcleParams(ExactLocation))).isEmpty)
    assert(leaves(Sparcle.clean(pts, SparcleParams(SpatialKnn(8, PowerWeight(2))))).isEmpty)
    assert(leaves(HoloCleanLike.clean(pts)).isEmpty)
  }
}
