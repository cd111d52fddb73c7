package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.{HashPartitioner, ShuffleDependency, SparkEnv}
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
import repro.spatialjoin.{Block, KnnJoin, Tally}

/** The physical shape of a `clean` call: the spatial join is its only
  * shuffle, an RDD shuffle of blocks of copies keyed by the reduce partition
  * of their grid cells, and a range or
  * exact-location call runs that join as its one job, whose map tasks also
  * tally the value statistics. The repairs a call returns are local; the
  * lazy frames read the per-cell output of the same shuffle. No frame's SQL
  * plan holds an exchange, aggregate, window or join.
  */
class PlanShapeSpec extends SparkSpec with Eventually {
  import PlanShapeSpec.Usage

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

  /** A clean by `clean`, and what it started. */
  private def cleaned(clean: => SparcleResult): (SparcleResult, Usage) = {
    var r: SparcleResult = null
    val usage = usageOf { r = clean }
    (r, usage)
  }

  /** `clean` runs one job of two stages, the join's map stage and its reduce
    * stage, at most one task per core each. Its lazy frames read that job's
    * shuffle output: reading `erroneous` runs the reduce stage alone. Its
    * repairs are local: collecting them starts no job, and their plan holds
    * no SQL operator.
    */
  private def assertOneJob(name: String, clean: => SparcleResult): SparcleResult = {
    val cores = spark.sparkContext.defaultParallelism
    val (r, usage) = cleaned(clean)
    assert(usage.jobs == 1, name)
    assert(usage.tasks.size == 2 && usage.tasks.values.forall(n => n > 0 && n <= cores), s"$name: $usage")
    assert(usage.writing == 1, s"$name: $usage")
    val reread = usageOf(r.erroneous.collect())
    assert(reread.jobs == 1 && reread.writing == 0 && reread.tasks.values.count(_ > 0) == 1, s"$name: $reread")
    assert(jobsOf(r.repairs.collect()) == 0, name)
    assert(sqlOperators(r.repairs).isEmpty, s"$name plans SQL operators")
    r
  }

  test("a SpatialRange clean shuffles exactly once") {
    for (w <- Seq(PowerWeight(2), PowerWeight(0)))
      assertOneJob(s"SpatialRange $w", Sparcle.clean(pts, SparcleParams(SpatialRange(300, w))))
  }

  test("an ExactLocation clean and HoloCleanLike shuffle exactly once") {
    assertOneJob("ExactLocation", Sparcle.clean(pts, SparcleParams(ExactLocation)))
    assertOneJob("HoloCleanLike", HoloCleanLike.clean(pts))
  }

  test("a range or exact clean's one exchange has one partition per core, keyed by cell, and no aggregate") {
    val cores = spark.sparkContext.defaultParallelism
    val results = Seq(
      "SpatialRange" -> (() => Sparcle.clean(pts, SparcleParams(SpatialRange(300, PowerWeight(2))))),
      "ExactLocation" -> (() => Sparcle.clean(pts, SparcleParams(ExactLocation))),
      "HoloCleanLike" -> (() => HoloCleanLike.clean(pts)))
    for ((name, clean) <- results) {
      val r = assertOneJob(name, clean())
      for (frame <- Seq(r.erroneous, r.candidates, r.labels))
        shuffles(frame) match {
          case Seq(s) =>
            assert(s.partitioner == new HashPartitioner(cores), name)
            assert(s.partitioner.numPartitions == cores, name)
            // Each map task sends one block to each reduce partition, keyed by its index.
            val sent = s.rdd.asInstanceOf[RDD[Product2[Any, Any]]].map(r => (r._1, r._2.getClass.getName)).collect()
            assert(sent.map(_._1).toSeq.sortBy(_.asInstanceOf[Int]) ==
                     (0 until cores).flatMap(to => Seq.fill(s.rdd.getNumPartitions)(to)), name)
            assert(sent.forall(_._2 == classOf[Block].getName), name)
            assert(s.serializer eq SparkEnv.get.serializer, name)
          case other => fail(s"$name: expected one shuffle by grid cell, got $other")
        }
    }
  }

  test("a SpatialKnn clean has no window or join and shuffles only by grid cell") {
    val (r, usage) = cleaned(Sparcle.clean(pts, SparcleParams(SpatialKnn(5))))
    assert(usage.writing > 0, usage)
    assert(sqlOperators(r.repairs).isEmpty)
    // The DistanceMatrix reads the shuffle output of the clean's rounds.
    assert(usageOf(r.dm.collect()).writing == 0)
    assert(sqlOperators(r.dm).isEmpty)
    val deps = shuffles(r.dm)
    assert(deps.nonEmpty)
    deps.foreach(s => assert(s.partitioner == new HashPartitioner(spark.sparkContext.defaultParallelism)))
  }

  /** What `body` starts, counted by job group. */
  private def usageOf(body: => Unit): Usage = {
    val sc = spark.sparkContext
    val group = "plan-shape-jobs-of"
    val jobs = new AtomicLong
    val drained = new AtomicLong
    val sentinel = ConcurrentHashMap.newKeySet[Int]()
    val tasks = new ConcurrentHashMap[Int, Int]()
    val writing = ConcurrentHashMap.newKeySet[Int]()
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
        if (tasks.containsKey(e.stageId)) {
          tasks.computeIfPresent(e.stageId, (_, n) => n + 1)
          if (e.taskMetrics != null && e.taskMetrics.shuffleWriteMetrics.bytesWritten > 0) writing.add(e.stageId)
        }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, "counted")
      try body finally sc.clearJobGroup()
      sc.setJobGroup(s"$group-sentinel", "listener drain")
      try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
      eventually(timeout(Span(30, Seconds))) { assert(drained.get == 1) }
      Usage(jobs.get, tasks.asScala.toMap, writing.size)
    } finally sc.removeSparkListener(listener)
  }

  /** The Spark jobs `body` starts, counted by job group. */
  private def jobsOf(body: => Unit): Long = usageOf(body).jobs

  test("a SpatialKnn clean searches once: its dm starts no job of its own") {
    val search = jobsOf { KnnJoin.rounds(pts, 5, Tally.of(pts)) }
    var res: SparcleResult = null
    // The search, then the final reduce.
    assert(jobsOf { res = Sparcle.clean(pts, SparcleParams(SpatialKnn(5))) } == search + 1)
    assert(jobsOf(res.dm) == 0)
    assert(res.dm.columns.toSeq == Seq("r1", "r2", "v1", "v2", "dist", "w"))
  }

  test("a SpatialKnn clean runs 3 jobs sharing each round's shuffle") {
    assert(KnnJoin.rounds(pts, 5, Tally.of(pts)).rounds.size == 1)
    val usage = usageOf(Sparcle.clean(pts, SparcleParams(SpatialKnn(5))).repairs.collect())
    // The statistics with the extent, the round's open-id collect and the
    // final reduce.
    assert(usage.jobs == 3)
    // Those jobs' stages, the shuffle's map stage once: the final reduce reads
    // the map output the collect left.
    assert(usage.tasks.values.count(_ > 0) == 4, usage)
    assert(usage.writing == 1, usage)
  }

  test("ValueStats.of runs one job and writes no shuffle bytes") {
    var stats: ValueStats = null
    val usage = usageOf { stats = ValueStats.of(pts) }
    assert(stats.total == 500)
    assert(usage.jobs == 1 && usage.writing == 0, usage)
  }

  test("on a 16-partition input, a clean runs 1 job, one task per core at most") {
    val wide = spark.createDataFrame(spark.sparkContext.parallelize(pts.collect().toSeq, 16), pts.schema)
    assert(wide.rdd.getNumPartitions == 16)
    // The join's map stage and its reduce stage.
    assertOneJob("SpatialRange", Sparcle.clean(wide, SparcleParams(SpatialRange(300, PowerWeight(2)))))
    assertOneJob("HoloCleanLike", HoloCleanLike.clean(wide))
  }
}

object PlanShapeSpec {

  /** The Spark jobs a body starts, the tasks each of their stages runs, and
    * how many of those stages write shuffle output.
    */
  final case class Usage(jobs: Long, tasks: Map[Int, Int], writing: Int)
}
