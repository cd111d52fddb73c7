package repro.pipebench

import java.nio.file.{Files, Paths}

import scala.collection.immutable.ListMap
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.SpatialRange
import repro.data.SpatialSynth
import repro.eval.Metrics

/** Closed-loop benchmark of one workload: back-to-back forced `clean` calls
  * from one driver on `local[N]`, reporting the end-to-end metrics; or, with
  * `--trace 1`, one traced layer-by-layer pass reporting per-layer metrics.
  *
  * Usage: `PipelineBench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * [--out <file>]`. The last stdout line is the result object.
  */
object PipelineBench {

  /** Data generation and input caching run this often per run; `setup_s`
    * counts their median.
    */
  val SetupReps = 3
  val ShufflePartitions = 64
  val Forcing = "collect"

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        out: Option[String])

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace", "out")
    require(unknown.isEmpty, s"unknown options: ${unknown.mkString(", ")}")
    Args(kv("workload"), kv.getOrElse("seed", "0").toLong, kv.getOrElse("seconds", "10").toDouble,
         kv.getOrElse("trace", "0") == "1", kv.get("out"))
  }

  /** One `clean` call as measured: wall and task seconds, jobs, tasks, the
    * RDDs it left persisted, its repairs and the checks it failed.
    */
  final case class Call(secs: Double, usage: GroupUsage, leaked: Int,
                        repairs: Vector[Repair], dmRows: Long, problems: Seq[String])

  /** The benchmark's materialized inputs. */
  final case class Inputs(points: DataFrame, truth: DataFrame, values: Map[Long, String],
                          truthValues: Map[Long, String], xy: Seq[(Double, Double)])

  def session(nCores: Int): SparkSession = {
    val work = sys.props.getOrElse("pipebench.work", ".bench_build")
    SparkSession.builder
      .master(s"local[$nCores]")
      .appName("pipebench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$work/spark-local")
      .config("spark.sql.warehouse.dir", s"$work/spark-warehouse")
      .getOrCreate()
  }

  def prepare(w: Workload, seed: Long)(implicit spark: SparkSession): Inputs = {
    val ds = SpatialSynth.generate(Workloads.nycCrash(seed))
    val points = ds.points(w.attr).localCheckpoint(eager = true)
    val truth = ds.truthFor(w.attr).localCheckpoint(eager = true)
    val pts = points.collect()
    Inputs(points, truth,
      pts.map(r => r.getLong(0) -> r.getString(3)).toMap,
      truth.collect().map(r => r.getLong(0) -> r.getString(1)).toMap,
      pts.map(r => (r.getDouble(1), r.getDouble(2))).toSeq)
  }

  /** One isolated, forced call: time until the repairs are on the driver,
    * then (off the clock) count what it left persisted and release it.
    */
  def call(w: Workload, in: Inputs, acct: Accounting, iso: Isolation): Call = {
    require(iso.cachedEntries == 0, "SQL cache not empty before a call")
    val before = iso.persistedIds
    try {
      val run = acct.run("clean") {
        val r = w.clean(in.points); (r, r.repairs.collect())
      }
      val (res, rows) = run.value
      val dmRows = res.dm.count()
      val leaked = iso.releaseSince(before)
      val repairs = Repair.fromRows(rows)
      Call(run.secs, run.usage, leaked, repairs, dmRows, Checks.repairs(repairs, in.values))
    } catch {
      case NonFatal(e) =>
        iso.releaseSince(before)
        Call(0.0, GroupUsage(0, Nil), 0, Vector.empty, 0L, Seq(s"call threw: $e"))
    }
  }

  /** Later calls must repeat the first: same repairs, jobs and tasks. A
    * mismatch means state leaked between calls.
    */
  def sameAsFirst(first: Call, c: Call): Seq[String] =
    Seq(
      (c.repairs == first.repairs) -> "repairs differ from the first call",
      (c.usage.jobs == first.usage.jobs) -> s"jobs ${c.usage.jobs} != first call's ${first.usage.jobs}",
      (c.usage.tasks.size == first.usage.tasks.size) ->
        s"tasks ${c.usage.tasks.size} != first call's ${first.usage.tasks.size}",
    ).collect { case (false, msg) => msg }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val w = Workloads.byName(args.workload)
    val nCores = math.min(Runtime.getRuntime.availableProcessors(), 4)

    val t0 = System.nanoTime()
    implicit val spark: SparkSession = session(nCores)
    spark.sparkContext.setLogLevel("WARN")
    val acct = new Accounting(spark)
    val iso = new Isolation(spark)
    val sessionS = (System.nanoTime() - t0) / 1e9

    // Set-up: data generation and input caching, repeated (the inputs of
    // the last repetition are kept), a warm-up call, then the golden check.
    var inputs: Inputs = null
    val repS = (1 to SetupReps).map { i =>
      val before = iso.persistedIds
      val s0 = System.nanoTime()
      inputs = prepare(w, args.seed)
      val s = (System.nanoTime() - s0) / 1e9
      if (i < SetupReps) iso.releaseSince(before)
      s
    }
    val w0 = System.nanoTime()
    val warm = call(w, inputs, acct, iso)
    val warmS = (System.nanoTime() - w0) / 1e9
    val g0 = System.nanoTime()
    val golden = iso.scoped(Checks.table2Golden())
    val goldenS = (System.nanoTime() - g0) / 1e9
    val setupS = sessionS + Stats.median(repS) + warmS + goldenS

    // Measured calls: back to back until the run's seconds are used; a
    // traced run makes one, as the untraced reference for its overhead.
    val m0 = System.nanoTime()
    var calls = Vector(call(w, inputs, acct, iso))
    while (!args.trace && (System.nanoTime() - m0) / 1e9 < args.seconds)
      calls :+= call(w, inputs, acct, iso)

    val measured = calls.map(c => c.copy(problems = c.problems ++ sameAsFirst(calls.head, c)))
    val checked = warm.copy(problems = warm.problems ++ sameAsFirst(calls.head, warm)) +: measured

    val traced = if (args.trace) Some(tracedPass(w, inputs, acct, iso, measured.head)) else None

    val scoreOf = {
      val rs = measured.head.repairs
      val df = spark.createDataFrame(rs.map(r => (r.id, r.oldValue, r.newValue)))
        .toDF("id", "oldValue", "newValue")
      Metrics.score(inputs.points, inputs.truth, df)
    }

    val failedCalls = checked.count(_.problems.nonEmpty) + traced.count(_.problems.nonEmpty)
    val attempted = checked.size + traced.size
    val problems = golden ++ checked.flatMap(_.problems) ++ traced.toSeq.flatMap(_.problems)
    val cleanS = Stats.median(measured.map(_.secs))

    val metrics: ListMap[String, (Double, String)] = traced match {
      case None => ListMap(
        "setup_s" -> (setupS, "s"),
        "clean_s" -> (cleanS, "s"),
        "task_s" -> (Stats.median(measured.map(_.usage.taskS)), "s"),
        "spark_jobs" -> (Stats.median(measured.map(_.usage.jobs.toDouble)), "count"),
        "f1" -> (scoreOf.f1, "ratio"),
        "precision" -> (scoreOf.precision, "ratio"),
        "recall" -> (scoreOf.recall, "ratio"),
        "leaked_rdds" -> (Stats.median(measured.map(_.leaked.toDouble)), "count"),
        "ok_share" -> ((attempted - failedCalls).toDouble / attempted, "share"),
      )
      case Some(t) => t.metrics + ("tracing_overhead_s" -> (t.tracedTotal - cleanS, "s"))
    }

    val meta = ListMap[String, Any](
      "workload" -> w.name,
      "seed" -> args.seed,
      "dataset_seed" -> (Workloads.NycSeed + args.seed),
      "scale" -> Workloads.Scale,
      "records" -> inputs.values.size,
      "dm_rows" -> measured.head.dmRows,
      "traced" -> args.trace,
      "forcing" -> Forcing,
      "calls_measured" -> measured.size,
      "call_secs" -> measured.map(_.secs),
      "setup_parts_s" -> ListMap("session" -> sessionS, "inputs" -> repS, "warmup" -> warmS,
                                 "golden" -> goldenS),
      "git_sha" -> sys.props.getOrElse("pipebench.git_sha", "unknown"),
      "source_sha256" -> sys.props.getOrElse("pipebench.source_sha256", "unknown"),
      "nproc" -> Runtime.getRuntime.availableProcessors(),
      "master" -> spark.sparkContext.master,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "broadcast_join_threshold" -> spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "adaptive" -> spark.conf.get("spark.sql.adaptive.enabled"),
      "driver_max_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "spark" -> spark.version,
      "scala" -> scala.util.Properties.versionNumberString,
      "java" -> System.getProperty("java.version"),
      "problems" -> problems,
    )
    val result = ListMap[String, Any](
      "correct" -> problems.isEmpty,
      "attempted" -> attempted,
      "failed" -> failedCalls,
      "metrics" -> metrics.map { case (k, (v, u)) => k -> ListMap("value" -> v, "unit" -> u) },
    )
    args.out.foreach { f =>
      val p = Paths.get(f)
      Option(p.getParent).foreach(Files.createDirectories(_))
      Files.writeString(p, Json(ListMap("meta" -> meta, "result" -> result,
        "spans" -> traced.map(_.spans).getOrElse(Nil))) + "\n")
    }
    spark.stop()
    println("pipebench-meta " + Json(meta))
    println(Json(result))
  }

  /** The traced pass: per-layer metrics, the problems found, the spans, and
    * the traced total (the sum of the layers' self times).
    */
  final case class TraceResult(metrics: ListMap[String, (Double, String)], problems: Seq[String],
                               spans: Seq[ListMap[String, Any]], tracedTotal: Double)

  def tracedPass(w: Workload, in: Inputs, acct: Accounting, iso: Isolation, ref: Call)
                (implicit spark: SparkSession): TraceResult = {
    val before = iso.persistedIds
    val trace = new Trace(acct, iso)
    val out = trace.run(w, in.points)

    val n = in.values.size.toDouble
    val pairsN = out.pairs.count()
    val (colocated, probesWithNeighbours) = Trace.pairStats(out.pairs)
    val compared = w.constraint match {
      case SpatialRange(d, _) => Trace.gridComparisons(in.xy, d)
      case _                  => Trace.locationComparisons(in.xy)
    }
    val wrong = in.values.collect { case (id, v) if v == null || v != in.truthValues(id) => id }.toSet
    val flagged = out.erroneous.collect().map(_.getLong(0)).toSet
    val cands = out.cand.candidates.select("id", "value").collect()
      .map(r => (r.getLong(0), r.getString(1)))
    val labels = out.cand.labels.collect().map(r => r.getLong(0) -> r.getString(1))
    val remaining = out.cand.remaining.collect().map(_.getLong(0))
    val candSet = cands.toSet
    def share(a: Double, b: Double) = if (b == 0) 0.0 else a / b

    val joinSpan = trace.spans.find(_.layer == Trace.SpatialJoin).get
    val specific = ListMap[String, (Double, String)](
      "spatialjoin.neighbors_mean" -> (share(pairsN, n), "count"),
      "spatialjoin.zero_neighbor_share" -> (share(n - probesWithNeighbours, n), "share"),
      "spatialjoin.colocated_share" -> (share(colocated, pairsN), "share"),
      "spatialjoin.task_skew" -> (joinSpan.usage.taskSkew, "ratio"),
      "spatialjoin.filter_ratio" -> (share(pairsN, compared), "ratio"),
      "core.detector.flagged_cells" -> (flagged.size.toDouble, "count"),
      "core.detector.true_error_share" -> (share((flagged & wrong).size, flagged.size), "share"),
      "core.detector.error_coverage" -> (share((flagged & wrong).size, wrong.size), "share"),
      "core.candgen.candidates_per_cell" -> (share(cands.length, cands.map(_._1).distinct.length), "count"),
      "core.candgen.labeled_cells" -> (labels.length.toDouble, "count"),
      "core.candgen.label_accuracy" ->
        (share(labels.count { case (id, l) => in.truthValues(id) == l }, labels.length), "share"),
      "core.candgen.truth_in_candidates" ->
        (share(remaining.count(id => candSet((id, in.truthValues(id)))), remaining.length), "share"),
      "core.corrector.repairs" -> (out.repairs.size.toDouble, "count"),
    )
    val traced = trace.selfTimes.values.sum
    val finalRepairs = out.holoRepairs.getOrElse(out.repairs)
    val problems =
      Checks.repairs(out.repairs, in.values) ++
      out.holoRepairs.toSeq.flatMap(Checks.repairs(_, in.values)) ++
      Checks.withinDetected(finalRepairs, flagged) ++
      (if (finalRepairs == ref.repairs) Nil else Seq("traced repairs differ from the untraced call"))
    iso.releaseSince(before)

    val spans = trace.spans.toSeq.map(s => ListMap[String, Any](
      "layer" -> s.layer, "start_ms" -> s.startMs, "end_ms" -> s.endMs, "s" -> s.secs,
      "jobs" -> s.usage.jobs, "tasks" -> s.usage.tasks.size, "rows_out" -> s.rowsOut,
      "parent" -> Trace.Children.collectFirst { case (p, cs) if cs.contains(s.layer) => p }.orNull))
    TraceResult(trace.layerMetrics ++ specific, problems, spans, traced)
  }
}
