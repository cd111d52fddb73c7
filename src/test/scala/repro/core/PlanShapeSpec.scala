package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.ShuffleDependency
import org.apache.spark.rdd.RDD
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.aggregate.BaseAggregateExec
import org.apache.spark.sql.execution.exchange.Exchange
import org.apache.spark.sql.execution.joins.BaseJoinExec
import org.apache.spark.sql.execution.window.WindowExec
import org.scalatest.concurrent.Eventually
import org.scalatest.time.{Seconds, Span}

import repro.{SparkSpec, TestPoints}
import repro.cleaning.HoloCleanLike
import repro.spatialjoin.{CellPartitioner, CopySerializer, KnnJoin}

/** The physical shape of a `clean` call: the spatial join is its only
  * shuffle, an RDD shuffle of copies keyed by grid cell, and the value
  * statistics are one shuffle-free job. The frames a call returns read the
  * per-cell output directly: their SQL plans hold no exchange, aggregate,
  * window or join.
  */
class PlanShapeSpec extends SparkSpec with Eventually {

  private object Plans extends AdaptiveSparkPlanHelper

  private lazy val pts = TestPoints.df(spark,
    TestPoints.random(400, 2000, 5, seed = 91, nullEvery = 7) ++
    TestPoints.random(100, 2000, 5, seed = 92).map { case (id, x, y, v) =>
      (id + 1000L, math.floor(x / 400) * 400, math.floor(y / 400) * 400, v) })

  /** The shuffle dependencies in the lineage of `df`'s RDD, each once. */
  private def shuffles(df: DataFrame): Seq[ShuffleDependency[_, _, _]] = {
    def walk(rdd: RDD[_]): Seq[ShuffleDependency[_, _, _]] = rdd.dependencies.flatMap {
      case s: ShuffleDependency[_, _, _] => s +: walk(s.rdd)
      case d                             => walk(d.rdd)
    }
    walk(df.queryExecution.toRdd).distinct
  }

  /** The exchanges, aggregates, windows and joins in the final executed plan
    * of `df`, after collecting it.
    */
  private def sqlOperators(df: DataFrame): Seq[SparkPlan] = {
    df.collect()
    Plans.collect(df.queryExecution.executedPlan) {
      case p @ (_: Exchange | _: BaseAggregateExec | _: WindowExec | _: BaseJoinExec) => p
    }
  }

  test("a SpatialRange clean shuffles exactly once") {
    for (w <- Seq(PowerWeight(2), PowerWeight(0))) {
      val repairs = Sparcle.clean(pts, SparcleParams(SpatialRange(300, w))).repairs
      assert(shuffles(repairs).size == 1)
      assert(sqlOperators(repairs).isEmpty)
    }
  }

  test("an ExactLocation clean and HoloCleanLike shuffle exactly once") {
    assert(shuffles(Sparcle.clean(pts, SparcleParams(ExactLocation)).repairs).size == 1)
    assert(shuffles(HoloCleanLike.clean(pts).repairs).size == 1)
  }

  test("a range or exact clean's one exchange has one partition per core, keyed by cell, and no aggregate") {
    val cores = spark.sparkContext.defaultParallelism
    val results = Seq(
      "SpatialRange" -> Sparcle.clean(pts, SparcleParams(SpatialRange(300, PowerWeight(2)))),
      "ExactLocation" -> Sparcle.clean(pts, SparcleParams(ExactLocation)),
      "HoloCleanLike" -> HoloCleanLike.clean(pts))
    for ((name, r) <- results) {
      shuffles(r.repairs) match {
        case Seq(s) =>
          assert(s.partitioner == new CellPartitioner(cores), name)
          assert(s.partitioner.numPartitions == cores, name)
          assert(s.serializer eq CopySerializer, name)
        case other => fail(s"$name: expected one shuffle by grid cell, got $other")
      }
      assert(sqlOperators(r.repairs).isEmpty, s"$name plans SQL operators")
    }
  }

  test("a SpatialKnn clean has no window or join and shuffles only by grid cell") {
    val repairs = Sparcle.clean(pts, SparcleParams(SpatialKnn(5))).repairs
    assert(sqlOperators(repairs).isEmpty)
    val deps = shuffles(repairs)
    assert(deps.nonEmpty)
    deps.foreach(s => assert(s.partitioner == new CellPartitioner(spark.sparkContext.defaultParallelism)))
  }

  /** The Spark jobs `body` starts, counted by job group, and the tasks each
    * of their stages runs.
    */
  private def countsOf(body: => Unit): (Long, Map[Int, Int]) = {
    val sc = spark.sparkContext
    val group = "plan-shape-jobs-of"
    val jobs = new AtomicLong
    val drained = new AtomicLong
    val sentinel = ConcurrentHashMap.newKeySet[Int]()
    val tasks = new ConcurrentHashMap[Int, Int]()
    val listener = new SparkListener {
      private def groupOf(e: SparkListenerJobStart) =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (groupOf(e) == group) {
          jobs.incrementAndGet()
          e.stageIds.foreach(tasks.putIfAbsent(_, 0))
        } else if (groupOf(e) == s"$group-sentinel") sentinel.add(e.jobId)
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (sentinel.contains(e.jobId)) drained.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        tasks.computeIfPresent(e.stageId, (_, n) => n + 1)
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "counted")
      try body finally sc.clearJobGroup()
      sc.setJobGroup(s"$group-sentinel", "listener drain")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      eventually(timeout(Span(30, Seconds))) { assert(drained.get == 1) }
      (jobs.get, tasks.asScala.toMap)
    } finally sc.removeSparkListener(listener)
  }

  /** The Spark jobs `body` starts, counted by job group. */
  private def jobsOf(body: => Unit): Long = countsOf(body)._1

  test("a SpatialKnn clean searches once: its dm starts no job of its own") {
    val search = jobsOf { ValueStats.of(pts); KnnJoin.rounds(pts, 5) }
    var res: SparcleResult = null
    assert(jobsOf { res = Sparcle.clean(pts, SparcleParams(SpatialKnn(5))) } == search)
    assert(jobsOf(res.dm) == 0)
    assert(res.dm.columns.toSeq == Seq("r1", "r2", "v1", "v2", "dist", "w"))
  }

  test("a SpatialKnn clean runs 4 jobs, and its round's collect and final reduce share one shuffle") {
    assert(KnnJoin.rounds(pts, 5).rounds.size == 1)
    val (jobs, tasks) = countsOf(Sparcle.clean(pts, SparcleParams(SpatialKnn(5))).repairs.collect())
    // The statistics, the extent, the round's open-id collect and the final reduce.
    assert(jobs == 4)
    // Those jobs' stages, the shuffle's map stage once: the final reduce reads
    // the map output the collect left.
    assert(tasks.values.count(_ > 0) == 5, tasks)
  }

  test("ValueStats.of runs one job and writes no shuffle bytes") {
    val sc = spark.sparkContext
    val group = "plan-shape-value-stats"
    val jobs = new AtomicLong
    val drained = new AtomicLong
    val shuffleBytes = new AtomicLong
    val sentinel = ConcurrentHashMap.newKeySet[Int]()
    val stages = ConcurrentHashMap.newKeySet[Int]()
    val listener = new SparkListener {
      private def groupOf(e: SparkListenerJobStart) =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull
      override def onJobStart(e: SparkListenerJobStart): Unit =
        if (groupOf(e) == group) {
          jobs.incrementAndGet()
          e.stageIds.foreach(stages.add)
        } else if (groupOf(e) == s"$group-sentinel") sentinel.add(e.jobId)
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (sentinel.contains(e.jobId)) drained.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stages.contains(e.stageId) && e.taskMetrics != null)
          shuffleBytes.addAndGet(e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "ValueStats.of")
      val stats = try ValueStats.of(pts) finally sc.clearJobGroup()
      assert(stats.total == 500)
      // Events arrive in order: once a later job's end is seen, every event
      // of the call has been.
      sc.setJobGroup(s"$group-sentinel", "listener drain")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      eventually(timeout(Span(30, Seconds))) { assert(drained.get == 1) }
      assert(jobs.get == 1)
      assert(shuffleBytes.get == 0)
    } finally sc.removeSparkListener(listener)
  }

  test("on a 16-partition input, a clean runs 2 jobs and at most one task per core in every stage") {
    val cores = spark.sparkContext.defaultParallelism
    val wide = spark.createDataFrame(spark.sparkContext.parallelize(pts.collect().toSeq, 16), pts.schema)
    assert(wide.rdd.getNumPartitions == 16)
    val cleans = Seq[(String, () => SparcleResult)](
      "SpatialRange" -> (() => Sparcle.clean(wide, SparcleParams(SpatialRange(300, PowerWeight(2))))),
      "HoloCleanLike" -> (() => HoloCleanLike.clean(wide)))
    for ((name, clean) <- cleans) {
      val (jobs, tasks) = countsOf(clean().repairs.collect())
      assert(jobs == 2, name)
      // The value statistics, then the join's map stage and its reduce stage.
      assert(tasks.values.count(_ > 0) == 3, s"$name: $tasks")
      assert(tasks.values.forall(_ <= cores), s"$name: $tasks")
    }
  }
}
