package repro.core

import scala.collection.immutable.ArraySeq

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

import repro.spatialjoin.{IndexSort, Tally}

/** Parameters of the candidate generation process (§4).
  *
  * @param minProb        Phase-3 cutoff: candidates with normalized
  *                       probability below this are marginal and dropped
  * @param maxProb        Phase-3 labeling threshold: a cell whose top
  *                       candidate exceeds this is auto-labeled clean
  * @param defaultWeight  Phase-1 weight for the cell's original value when no
  *                       nearby record shares it (paper: 0.01)
  * @param minimalityBias Phase-2 pseudo-count for non-co-occurring value
  *                       pairs — the "principle of minimality" 0.1 that gives
  *                       a 10× bias toward the original record value
  */
final case class CandGenParams(
    minProb: Double = 0.05,
    maxProb: Double = 0.95,
    defaultWeight: Double = 0.01,
    minimalityBias: Double = 0.1,
)

/** Output of the spatial candidate generator.
  *
  * @param candidates Candidate list for every detected erroneous cell, after
  *                   the Phase-3 MinProb cutoff. Columns: `id`, `value`,
  *                   `nearW` (sum of nearby co-occurrence weights, 0.0 when
  *                   none — used by the formulators), `sumW` (Phase-1 weight:
  *                   nearW, or the 0.01 default for an original value that
  *                   never co-occurs nearby), `isOrig`, `prob` (Phase-2
  *                   Naive-Bayes probability), `normProb`.
  * @param labels     Cells auto-labeled clean by Phase 3: `id`, `label`.
  * @param remaining  Cells still erroneous after Phase 3: `id`.
  */
final case class CandidateResult(candidates: DataFrame, labels: DataFrame, remaining: DataFrame)

/** One candidate of a cell kept by the Phase-3 cutoff, with the cell's total
  * neighbour weight `totalW` and the three host formats (§5).
  */
final case class Candidate(value: String, nearW: Double, isOrig: Boolean, sumW: Double,
                           prob: Double, normProb: Double, totalW: Double,
                           viol: Double, p: Double, fg: Double)

/** Corpus-level statistics backing Phase 2: the value-frequency table
  * Count(v, D) and the dataset size |D| (Fig. 3b). A clean's reduce tasks
  * merge them from the tallies the join's map tasks send ([[Tally]]);
  * [[ValueStats.of]] reads them from the input in a pass of their own; tests
  * reproducing the paper's worked example inject the paper's figures
  * directly.
  */
final case class ValueStats(counts: Map[String, Long], total: Long) {

  /** The most frequent value (ties: the smallest), if any value is non-null. */
  def modal: Option[String] =
    if (counts.isEmpty) None else Some(counts.minBy { case (v, n) => (-n, v) }._1)
}

object ValueStats {

  /** The statistics of `points`, which checks the points contract first
    * (`Tally.of`: one job over the input's rows, no shuffle, at most one task
    * per core): a `string` value column, and a non-null `id` with finite `x`
    * and `y` on every record, and no id given twice. This is the eager check
    * of `DistanceMatrix.build` and `BaranLike.clean`; `Sparcle.clean` makes
    * the same check in its join's job instead.
    */
  def of(points: DataFrame): ValueStats = of(Tally.of(points))

  /** The statistics of the rows that `tally` counts. */
  def of(tally: Tally): ValueStats = ValueStats(tally.counts, tally.records)
}

/** Spatial candidate generator (§4, Algorithm 2).
  *
  * Phase 1 relaxes exact co-occurrence to nearby co-occurrence and counts it
  * as a distance-weighted sum — the neighbour-value histogram. Phase 2 scores
  * each candidate with the spatially-relaxed Naive-Bayes estimate
  * `Prob(C=v) = |Spatial(v,R)|/|D| × Π_{A'} Count((v,R.A'),D)/Count(v,D)`,
  * where A′ is the record-identifier attribute alone (the paper's
  * experiments mute the non-spatial signals): it contributes 1/Count(v,D)
  * for the cell's original value and minimalityBias/Count(v,D) otherwise. Phase 3
  * normalizes, applies the MinProb cutoff and auto-labels dominant cells.
  */
object SpatialCandidateGenerator {

  /** Columns of [[CandidateResult.candidates]]. */
  val CandidateColumns: Seq[String] = Seq("id", "value", "nearW", "isOrig", "sumW", "prob", "normProb")

  /** Generate candidates for the erroneous cells: the per-cell kernel
    * (`Sparcle.decide`) on each cell's rows of `dm`, grouped by `r1` and
    * summed in list order, for the cells of `erroneous`.
    *
    * @param points    input records: `id, x, y, value`
    * @param dm        DistanceMatrix of the governing spatial constraint
    * @param erroneous cell ids flagged by the spatial error detector
    * @param params    generation parameters
    */
  def generate(points: DataFrame, dm: DataFrame, erroneous: DataFrame,
               params: CandGenParams = CandGenParams(),
               stats: Option[ValueStats] = None): CandidateResult = {
    val err = erroneous.select("id")
    val st = stats.getOrElse(ValueStats.of(points))
    val decideOne = udf((id: Long, v1: String, nbs: Seq[Row]) => Sparcle.decide(id,
      Histogram(v1, Option(nbs).getOrElse(Nil).map(nb => (nb.getString(0), nb.getDouble(1)))),
      st, params, Sparcle.DefaultMargin))
    val nbs = dm.groupBy(col("r1").as("id")).agg(collect_list(struct("v2", "w")).as("nbs"))
    val cells = points.join(nbs, Seq("id"), "left")
      .select(decideOne(col("id"), col("value"), col("nbs")).as("c")).select("c.*")
      .join(err, Seq("id"), "left_semi")
    val labels = labelsOf(cells)
    CandidateResult(candidatesOf(cells).select(CandidateColumns.map(col): _*), labels,
                    err.join(labels, Seq("id"), "left_anti"))
  }

  /** Phases 1–3 for one cell with histogram `hist`: its candidates kept by
    * the MinProb cutoff, in rank order (normProb desc, value asc), and its
    * Phase-3 label, or null. Every sum runs in histogram order, and only the
    * kept candidates are built.
    */
  def phases(hist: Histogram, stats: ValueStats, params: CandGenParams): (Seq[Candidate], String) = {
    val n = hist.size
    var totalW = 0.0
    var i = 0
    while (i < n) {
      totalW += hist.nearW(i)
      i += 1
    }
    // ---- Phases 1 and 2: the weighted co-occurrence and the probability.
    val sumW, prob, normProb = new Array[Double](n)
    var mass = 0.0
    i = 0
    while (i < n) {
      sumW(i) = if (hist.nearW(i) > 0) hist.nearW(i) else params.defaultWeight
      val prior = (if (hist.isOwn(i)) 1.0 else params.minimalityBias) /
        stats.counts.getOrElse(hist.value(i), 1L).toDouble
      prob(i) = (sumW(i) / stats.total.toDouble) * prior
      mass += prob(i)
      i += 1
    }
    // ---- Phase 3: normalize, rank, MinProb cutoff (never dropping the
    // best candidate), MaxProb labeling.
    i = 0
    while (i < n) {
      normProb(i) = prob(i) / mass
      i += 1
    }
    val rank = Array.range(0, n)
    IndexSort.sort(rank, n, (a, b) => {
      val c = java.lang.Double.compare(-normProb(a), -normProb(b))
      c < 0 || c == 0 && hist.value(a).compareTo(hist.value(b)) < 0
    })
    val kept = Array.newBuilder[Candidate]
    i = 0
    while (i < n) {
      val c = rank(i)
      if (i == 0 || normProb(c) >= params.minProb) {
        val f = SpatialInputFormulator.formats(hist.nearW(c), totalW)
        kept += Candidate(hist.value(c), hist.nearW(c), hist.isOwn(c), sumW(c), prob(c), normProb(c), totalW,
                          f.viol, f.p, f.fg)
      }
      i += 1
    }
    val candidates = ArraySeq.unsafeWrapArray(kept.result())
    val label = if (n > 0 && (candidates.size == 1 || candidates(0).normProb > params.maxProb)) candidates(0).value
                else null
    (candidates, label)
  }

  /** One row per candidate of a per-cell frame: `id` and the [[Candidate]] columns. */
  private[repro] def candidatesOf(cells: DataFrame): DataFrame = cells.select(col("id"), inline(col("candidates")))

  /** The Phase-3 labels of a per-cell frame: `id, label`. */
  private[repro] def labelsOf(cells: DataFrame): DataFrame = cells.where(col("label").isNotNull).select("id", "label")
}
