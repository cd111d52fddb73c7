package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Encoders, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}

import repro.spatialjoin.{Probes, Tally}

/** End-to-end Sparcle configuration for one spatial functional dependency
  * (Lat, Lon) → A.
  */
final case class SparcleParams(
    constraint: SpatialConstraint,
    candGen: CandGenParams = CandGenParams(),
    /** Corrector's initial-value bias: keep the cell's original value unless
      * the best candidate's weighted-violation advantage exceeds this share
      * of the cell's total neighbor weight. Emulates the initial-value
      * feature AimNet learns to weigh against constraint violations.
      */
    keepOriginalMargin: Double = Sparcle.DefaultMargin,
)

/** Everything a run produces, for inspection by tests and benches. `clean`
  * computes `repairs` in the join's job and holds them on the driver, so
  * reading them starts no job. Every other frame is lazy and nothing is
  * persisted: each is built on first read, and reading it runs the join's
  * loop per grid cell again on the join's shuffle output, so a caller that
  * reads only `repairs` pays for none of them.
  *
  * @param repairs cells whose final value differs from the input:
  *                `id, oldValue (nullable), newValue`, a local frame
  */
final class SparcleResult(dmOf: => DataFrame, erroneousOf: => DataFrame, candidatesOf: => DataFrame,
                          labelsOf: => DataFrame, val repairs: DataFrame) {

  /** The DistanceMatrix: a debug and oracle view. A range or exact-location
    * run never reads it; a kNN run reads it for `erroneous`.
    */
  lazy val dm: DataFrame = dmOf

  /** Cell ids flagged by the spatial error detector. */
  lazy val erroneous: DataFrame = erroneousOf

  /** Post-cutoff candidate lists with all formulator scores. */
  lazy val candidates: DataFrame = candidatesOf

  /** Phase-3 auto-labels. */
  lazy val labels: DataFrame = labelsOf
}

/** One cell's outcome: detector verdict, Phase-3 candidates in rank order,
  * label (or null) and the corrector's value (null without candidates).
  */
final case class Cell(id: Long, v1: String, detected: Boolean, candidates: Seq[Candidate],
                      label: String, newValue: String)

/** The Sparcle pipeline (§2): spatial error detector → spatial candidate
  * generator → spatial input formulator → error corrector.
  *
  * The corrector substitutes the host's statistical repair module (AimNet in
  * the paper's deployment): with all non-spatial signals muted — as in the
  * paper's experiments — the repair minimizes the weighted violation score
  * (the AimNet feature vector of §5.1), with an initial-value bias: the
  * original value is kept unless the best candidate's violation advantage
  * exceeds `keepOriginalMargin` of the cell's total neighbor weight. This is
  * the deterministic analogue of the two features AimNet learns from —
  * constraint violations and the initial value. On the paper's worked
  * example it reproduces Table 2's favored values (r1 → Manhattan,
  * r2 → S. Island, all others keep their original value). Phase-3 labels
  * take precedence, matching the paper's "safely moved to the clean list"
  * semantics.
  *
  * Execution: every stage after the join reads only one cell's neighbour
  * histogram and the corpus statistics, so [[decide]] runs them all per
  * cell, reducing the constraint's `DistanceMatrix.neighbours` inside the
  * join's loop: over each reduce task's copies, ordered by cell and id,
  * behind the range or exact-location join's one shuffle (one partition
  * per core), or in the round of the kNN join that finalizes the cell. Each
  * record's neighbour weights are summed per value code into one
  * [[Histogram]] reused for the task's every record. A cell lists its
  * copies by id, so every histogram sum is a function of the input alone,
  * whatever its partitioning. The statistics ride the same shuffle: each
  * reduce task merges the tallies that the join's map tasks send it into
  * the [[ValueStats]] of the whole input before its first cell. `clean`
  * runs the join's one job (a kNN clean: its final reduce, after the
  * search) at once: each reduce task returns its repairs, its records' ids
  * sorted and the first row that breaks the points contract, and the driver
  * throws the contract's error ([[repro.spatialjoin.Tally.check]]) or makes
  * `repairs` a local frame. `erroneous`, `candidates` and `labels` are
  * projections of a frame over the per-cell RDD of [[Cell]]s, built when
  * read; `dm` reduces the same relation to rows when read, so a kNN run
  * searches once. The DistanceMatrix-input layer functions (`generate`,
  * `allFormats`, [[repairsFrom]]) share these functions.
  */
object Sparcle {

  /** The corrector's default `keepOriginalMargin`. */
  val DefaultMargin: Double = 0.25

  def clean(points: DataFrame, params: SparcleParams): SparcleResult = run(points, params, _ => None)

  /** The pipeline, run at once up to its repairs.
    *
    * @param fallback the host's value, from the input's statistics, for
    *                 detected cells without any candidate (isolated null
    *                 cells), or None to leave them unrepaired
    */
  private[repro] def run(points: DataFrame, params: SparcleParams,
                         fallback: ValueStats => Option[String]): SparcleResult = {
    val SparcleParams(constraint, candGen, margin) = params
    val spark = points.sparkSession
    val neighbours = DistanceMatrix.neighbours(points, constraint)
    // Decides each record's cell in the join's loop, with the statistics
    // that its reduce task merged.
    val cells = neighbours.reduceTasks(records => decideAll(ValueStats.of(records.tally), records, candGen, margin))
    val outcomes = neighbours.reduceTasks { records =>
      val stats = ValueStats.of(records.tally)
      // A detected cell without any candidate (a null cell whose neighbours
      // are all null or absent) takes the fallback.
      val fill = fallback(stats).orNull
      val repairs = Array.newBuilder[Row]
      val ids = Array.newBuilder[Long]
      decideAll(stats, records, candGen, margin).foreach { c =>
        ids += c.id
        val v = if (c.newValue != null) c.newValue else fill
        if (c.detected && v != null && v != c.v1) repairs += Row(c.id, c.v1, v)
      }
      val sorted = ids.result()
      java.util.Arrays.sort(sorted)
      Iterator(Outcome(repairs.result(), sorted, records.tally.bad))
    }.collect()
    Tally.check(outcomes.iterator.map(_.bad).find(_ != null).orNull, outcomes.map(_.ids))
    val repairs = spark.createDataFrame(outcomes.iterator.flatMap(_.repairs).toSeq.asJava, repairSchema)
    lazy val frame = spark.createDataset(cells)(cellEncoder).toDF()
    lazy val dm = DistanceMatrix.of(points, neighbours)
    // The kNN relation is asymmetric: a conflict also flags its r2 cell.
    lazy val flagged = constraint match {
      case _: SpatialKnn => frame.join(SpatialErrorDetector.erroneousCells(points, dm), Seq("id"), "left_semi")
      case _             => frame.where(col("detected"))
    }
    new SparcleResult(dm, flagged.select("id"), SpatialCandidateGenerator.candidatesOf(flagged),
                      SpatialCandidateGenerator.labelsOf(flagged), repairs)
  }

  /** One reduce task's result: its repairs, its records' ids sorted, and the
    * first row of the input that breaks the points contract (null if none).
    */
  private final case class Outcome(repairs: Array[Row], ids: Array[Long], bad: String)

  /** The [[Cell]] of each of `records`, decided with `stats`: each record's
    * neighbours' weights are summed into one [[Histogram]] reused for every
    * record.
    */
  private def decideAll(stats: ValueStats, records: Probes, candGen: CandGenParams,
                        margin: Double): Iterator[Cell] = {
    val hist = new Histogram(records.names)
    records.probes.map { a =>
      hist.reset(a.code)
      var i = 0
      while (i < a.size) {
        hist.add(a.nbCode(i), a.w(i))
        i += 1
      }
      decide(a.id, hist, stats, candGen, margin)
    }
  }

  /** `id, oldValue, newValue`: a repair always has a value. */
  private val repairSchema: StructType =
    StructType(Seq(StructField("id", LongType, nullable = false), StructField("oldValue", StringType),
                   StructField("newValue", StringType, nullable = false)))

  private val cellEncoder = Encoders.product[Cell]

  /** The per-cell kernel (§3.3–§5): for cell `id` with histogram `hist`,
    * the detector's verdict, Phases 1–3 with the host formats, and the
    * corrector's choice.
    */
  def decide(id: Long, hist: Histogram, stats: ValueStats, candGen: CandGenParams, margin: Double): Cell = {
    val (candidates, label) = SpatialCandidateGenerator.phases(hist, stats, candGen)
    Cell(id, hist.own, SpatialErrorDetector.detected(hist), candidates, label,
         correct(candidates, label, margin))
  }

  /** The corrector: the cell's Phase-3 label if present. Otherwise the
    * candidate minimizing the weighted violation score (ties: normProb desc,
    * value asc), except that the cell's original value — when it survived as
    * a candidate — is kept unless the winner's violation advantage exceeds
    * `margin × totalW` (the initial-value bias). Null without candidates.
    */
  private def correct(candidates: Seq[Candidate], label: String, margin: Double): String =
    if (label != null || candidates.isEmpty) label
    else {
      var pick = candidates.head
      for (c <- candidates) {
        val byViol = java.lang.Double.compare(c.viol, pick.viol)
        val byProb = java.lang.Double.compare(-c.normProb, -pick.normProb)
        if (byViol < 0 || byViol == 0 && (byProb < 0 || byProb == 0 && c.value.compareTo(pick.value) < 0)) pick = c
      }
      candidates.find(_.isOrig).filter(o => o.viol - pick.viol <= margin * pick.totalW)
        .getOrElse(pick).value
    }

  /** The corrector over scored candidate rows, with every [[Candidate]]
    * column (as `SpatialInputFormulator.allFormats` gives them), and the
    * Phase-3 labels: `id, oldValue, newValue` of the erroneous cells whose
    * value it changes.
    */
  def repairsFrom(points: DataFrame, erroneous: DataFrame,
                  scoredCandidates: DataFrame, labels: DataFrame,
                  margin: Double = DefaultMargin): DataFrame = {
    val fields = Encoders.product[Candidate].schema.fieldNames.toSeq.map(col)
    val correctOne = udf((cands: Seq[Candidate], label: String) => correct(cands, label, margin))
    points.select(col("id"), col("value").as("oldValue"))
      .join(erroneous, Seq("id"))
      .join(scoredCandidates.groupBy("id").agg(collect_list(struct(fields: _*)).as("cands")), Seq("id"))
      .join(labels, Seq("id"), "left")
      .select(col("id"), col("oldValue"), correctOne(col("cands"), col("label")).as("newValue"))
      .where(changed)
  }

  private val changed = col("oldValue").isNull || col("oldValue") =!= col("newValue")
}
