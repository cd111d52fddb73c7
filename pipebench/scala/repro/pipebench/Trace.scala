package repro.pipebench

import scala.collection.immutable.ListMap
import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.functions._

import repro.cleaning.HoloCleanLike
import repro.core._

/** One layer call of the traced pass.
  *
  * @param startMs    wall-clock start (epoch ms), comparable to task times
  * @param rowsOut    rows of the layer's forced output
  * @param persisted  persisted RDDs the call left behind, not counting the
  *                   benchmark's own checkpoint of its output
  */
final case class Span(layer: String, startMs: Long, endMs: Long, secs: Double,
                      usage: GroupUsage, rowsOut: Long, persisted: Int) {
  def idleS: Double = Stats.idleMs(startMs, endMs, usage.busy) / 1e3
}

/** Times each layer from outside the program: every layer's public function
  * is called on materialized inputs and its output is forced (local
  * checkpoint, or collect for repairs) inside the span. Spans stay in memory
  * and are reported when the pass ends.
  */
final class Trace(acct: Accounting, iso: Isolation)(implicit spark: SparkSession) {
  import Trace._

  val spans: mutable.ArrayBuffer[Span] = mutable.ArrayBuffer()

  /** Run one layer: `call` builds the output, `force` materializes it (both
    * inside the span) and returns the forced value, its row count, and the
    * benchmark's own checkpoints in it.
    */
  private def layer[A, B](name: String)(call: => A)(force: A => (B, Long, Seq[DataFrame])): B = {
    val before = iso.persistedIds
    val run = acct.run(name)(force(call))
    val (out, rows, mine) = run.value
    val own = mine.flatMap(checkpointIds).toSet
    val persisted = (iso.settledIds() -- before -- own).size
    spans += Span(name, run.startMs, run.endMs, run.secs, run.usage, rows, persisted)
    out
  }

  private def frame(df: DataFrame): (DataFrame, Long, Seq[DataFrame]) = {
    val cp = df.localCheckpoint(eager = true)
    (cp, cp.count(), Seq(cp))
  }

  /** The whole pass for `w` on materialized `points`. */
  def run(w: Workload, points: DataFrame): Outputs = {
    val pairs = layer(SpatialJoin)(w.join(points))(frame)
    val dm = layer(Dm)(DistanceMatrix.build(points, w.constraint))(frame)
    val err = layer(Detector)(SpatialErrorDetector.erroneousCells(points, dm))(frame)
    val cand = layer(CandGen)(SpatialCandidateGenerator.generate(points, dm, err)) { c =>
      val (cands, n, _) = frame(c.candidates)
      val (labels, _, _) = frame(c.labels)
      val (remaining, _, _) = frame(c.remaining)
      (CandidateResult(cands, labels, remaining), n, Seq(cands, labels, remaining))
    }
    val scored = layer(Formulator)(SpatialInputFormulator.allFormats(cand.candidates, dm))(frame)
    val margin = SparcleParams(w.constraint).keepOriginalMargin
    val repairs = layer(Corrector)(Sparcle.repairsFrom(points, err, scored, cand.labels, margin)) { r =>
      val rs = Repair.fromRows(r.collect()); (rs, rs.size.toLong, Nil)
    }
    val holo =
      if (!w.holoClean) None
      else Some(layer(HoloClean)(HoloCleanLike.clean(points)) { r =>
        val rs = Repair.fromRows(r.repairs.collect()); (rs, rs.size.toLong, Nil)
      })
    Outputs(pairs, err, cand, repairs, holo)
  }

  /** Self time per layer: its span minus the spans of the layers it calls
    * internally.
    */
  def selfTimes: Map[String, Double] =
    Stats.selfTimes(spans.map(s => s.layer -> s.secs).toMap, Children)

  /** `L.s`, `L.self_s`, ... for every layer; zeros for a layer the workload
    * does not call.
    */
  def layerMetrics: ListMap[String, (Double, String)] = {
    val self = selfTimes
    ListMap.from(Layers.flatMap { l =>
      val s = spans.find(_.layer == l)
      def m(k: String, unit: String)(f: Span => Double) = s"$l.$k" -> (s.map(f).getOrElse(0.0), unit)
      Seq(
        m("s", "s")(_.secs),
        m("self_s", "s")(x => self(x.layer)),
        m("task_s", "s")(_.usage.taskS),
        m("idle_s", "s")(_.idleS),
        m("jobs", "count")(_.usage.jobs.toDouble),
        m("tasks", "count")(_.usage.tasks.size.toDouble),
        m("shuffle_mb", "MB")(_.usage.shuffleMb),
        m("rows_out", "count")(_.rowsOut.toDouble),
        m("persisted", "count")(_.persisted.toDouble),
      )
    })
  }
}

object Trace {
  val SpatialJoin = "spatialjoin"
  val Dm = "core.dm"
  val Detector = "core.detector"
  val CandGen = "core.candgen"
  val Formulator = "core.formulator"
  val Corrector = "core.corrector"
  val HoloClean = "cleaning.holoclean"

  val Layers: Seq[String] = Seq(SpatialJoin, Dm, Detector, CandGen, Formulator, Corrector, HoloClean)

  /** Layers each layer calls internally (for self time). */
  val Children: Map[String, Seq[String]] = Map(
    Dm -> Seq(SpatialJoin),
    HoloClean -> Seq(Dm, Detector, CandGen, Formulator, Corrector),
  )

  final case class Outputs(pairs: DataFrame, erroneous: DataFrame,
                           cand: CandidateResult, repairs: Vector[Repair],
                           holoRepairs: Option[Vector[Repair]])

  /** Ids of the persisted RDDs a local-checkpointed frame reads. */
  def checkpointIds(df: DataFrame): Seq[Int] =
    df.queryExecution.logical.collect { case l: LogicalRDD => l.rdd.id }

  /** Pairs a grid join at side `d` compares: Σ over cells of
    * n_cell × n_3×3, from the points' coordinates.
    */
  def gridComparisons(xy: Seq[(Double, Double)], d: Double): Long = {
    val cells = xy.groupMapReduce { case (x, y) =>
      (math.floor(x / d).toLong, math.floor(y / d).toLong) }(_ => 1L)(_ + _)
    cells.iterator.map { case ((cx, cy), n) =>
      val around = (for (dx <- -1L to 1L; dy <- -1L to 1L)
        yield cells.getOrElse((cx + dx, cy + dy), 0L)).sum
      n * around
    }.sum
  }

  /** Pairs the exact-location equi-join compares: Σ over locations n². */
  def locationComparisons(xy: Seq[(Double, Double)]): Long =
    xy.groupMapReduce(identity)(_ => 1L)(_ + _).values.map(n => n * n).sum

  /** Share of the join's pairs at distance 0, and the number of distinct
    * probes that found a neighbour.
    */
  def pairStats(pairs: DataFrame): (Long, Long) = {
    val r = pairs.agg(sum(when(col("dist") === 0.0, 1L).otherwise(0L)), countDistinct(col("r1"))).head()
    (if (r.isNullAt(0)) 0L else r.getLong(0), r.getLong(1))
  }
}
