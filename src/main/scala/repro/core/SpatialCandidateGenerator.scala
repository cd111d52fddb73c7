package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

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

/** Corpus-level statistics backing Phase 2: the value-frequency table
  * Count(v, D) and the dataset size |D| (Fig. 3b). By default they come from
  * one small collected aggregation over the input points; tests reproducing
  * the paper's worked example inject the paper's figures directly.
  */
final case class ValueStats(counts: Map[String, Long], total: Long) {

  /** Count(v, D) as a local frame of `value`, `cntV`, for a broadcast join. */
  def freq(spark: SparkSession): DataFrame = {
    import spark.implicits._
    counts.toSeq.toDF("value", "cntV")
  }

  /** The most frequent value (ties: the smallest), if any value is non-null. */
  def modal: Option[String] =
    if (counts.isEmpty) None else Some(counts.minBy { case (v, n) => (-n, v) }._1)
}

object ValueStats {
  def of(points: DataFrame): ValueStats = {
    val rows = points.groupBy("value").count().collect()
    ValueStats(
      rows.collect { case r if !r.isNullAt(0) => r.getString(0) -> r.getLong(1) }.toMap,
      rows.map(_.getLong(1)).sum)
  }
}

/** Spatial candidate generator (§4, Algorithm 2).
  *
  * Phase 1 relaxes exact co-occurrence to nearby co-occurrence and counts it
  * as a distance-weighted sum — the neighbour-value histogram. Phase 2 scores
  * each candidate with the spatially-relaxed Naive-Bayes estimate
  * `Prob(C=v) = |Spatial(v,R)|/|D| × Π_{A'} Count((v,R.A'),D)/Count(v,D)`,
  * where the record-identifier attribute contributes 1/Count(v,D) for the
  * cell's original value and minimalityBias/Count(v,D) otherwise. Phase 3
  * normalizes, applies the MinProb cutoff and auto-labels dominant cells.
  */
object SpatialCandidateGenerator {

  /** Columns of [[CandidateResult.candidates]]. */
  val CandidateColumns: Seq[String] = Seq("id", "value", "nearW", "isOrig", "sumW", "prob", "normProb")

  /** Generate candidates for the erroneous cells: [[perCell]] over the
    * histogram of `dm`, restricted to `erroneous`.
    *
    * @param points     input records: `id, x, y, value`
    * @param dm         DistanceMatrix of the governing spatial constraint
    * @param erroneous  cell ids flagged by the spatial error detector
    * @param params     generation parameters
    * @param extraAttrs optional additional non-spatial evidence attributes
    *                   A′ (beyond the implicit record identifier): frames of
    *                   `(id, a)` each contributing a
    *                   Count((v, R.A'), D)/Count(v, D) factor, with the
    *                   minimality pseudo-count for unseen pairs
    */
  def generate(points: DataFrame, dm: DataFrame, erroneous: DataFrame,
               params: CandGenParams = CandGenParams(),
               extraAttrs: Seq[DataFrame] = Nil,
               stats: Option[ValueStats] = None): CandidateResult =
    restrict(
      perCell(points, Histogram.withOwn(dm, points), stats.getOrElse(ValueStats.of(points)),
              params, extraAttrs),
      erroneous)

  /** Phases 1–3 for every cell of `hist` (built by [[Histogram.withOwn]]) in
    * one pass partitioned by `id`, erroneous or not: a cell's candidates
    * depend only on its own histogram rows.
    *
    * One row per candidate kept by the MinProb cutoff, for every cell with at
    * least one candidate. Columns: [[CandidateColumns]] plus `v1` (the cell's
    * own value), `totalW` (its total neighbour weight), `detected` (the
    * detector's verdict), `rk` (rank by normProb) and `label` (its Phase-3
    * label, or null).
    */
  def perCell(points: DataFrame, hist: DataFrame, stats: ValueStats, params: CandGenParams,
              extraAttrs: Seq[DataFrame] = Nil): DataFrame = {
    val byCell = Window.partitionBy("id")
    val byProb = byCell.orderBy(col("normProb").desc, col("value"))

    // ---- Phase 1: nearby co-occurrences plus the original value.
    val phase1 = hist
      .where(col("value").isNotNull)
      .withColumn("nearW", coalesce(col("nearW"), lit(0.0)))
      .withColumn("isOrig", col("value") <=> col("v1"))
      .withColumn("sumW", when(col("nearW") > 0, col("nearW")).otherwise(lit(params.defaultWeight)))

    // ---- Phase 2: Naive-Bayes probability with the spatial term.
    var scored = phase1
      .join(broadcast(stats.freq(points.sparkSession)), Seq("value"), "left")
      .withColumn("cntV", coalesce(col("cntV"), lit(1L)))
      .withColumn("prob",
        (col("sumW") / lit(stats.total.toDouble)) *
        (when(col("isOrig"), lit(1.0)).otherwise(lit(params.minimalityBias)) / col("cntV")))

    // Generic A' factors: Count((v, R.A'), D)/Count(v, D) with minimality
    // smoothing for unseen pairs. Each frame: (id, a).
    extraAttrs.zipWithIndex.foreach { case (attr, i) =>
      val aCol = attr.columns.filterNot(_ == "id").head
      val withVal = points.select(col("id"), col("value")).join(attr, Seq("id"))
      val cooc = withVal
        .where(col("value").isNotNull && col(aCol).isNotNull)
        .groupBy(col("value"), col(aCol))
        .agg(count(lit(1)).as(s"cooc_$i"))
      scored = scored
        .join(attr.select(col("id"), col(aCol)), Seq("id"), "left")
        .join(cooc, Seq("value", aCol), "left")
        .withColumn("prob",
          col("prob") * (coalesce(col(s"cooc_$i"), lit(params.minimalityBias)) / col("cntV")))
        .drop(aCol, s"cooc_$i")
    }

    // ---- Phase 3: normalize, MinProb cutoff (never dropping a cell's best
    // candidate), MaxProb labeling. totalW is taken before the cutoff: it
    // sums every neighbour value, as the formulators require.
    scored
      .withColumn("totalW", sum("nearW").over(byCell))
      .withColumn("detected", SpatialErrorDetector.detected(byCell))
      .withColumn("normProb", col("prob") / sum("prob").over(byCell))
      .withColumn("rk", row_number().over(byProb))
      .where(col("normProb") >= params.minProb || col("rk") === 1)
      .withColumn("label",
        when(count(lit(1)).over(byCell) === 1 || max("normProb").over(byCell) > params.maxProb,
             max(when(col("rk") === 1, col("value"))).over(byCell)))
  }

  /** The generator's outputs for the cells in `erroneous`, from [[perCell]]'s
    * rows; the candidates keep `columns`.
    */
  def restrict(cells: DataFrame, erroneous: DataFrame,
               columns: Seq[String] = CandidateColumns): CandidateResult = {
    val err = erroneous.select("id")
    val mine = cells.join(err, Seq("id"), "left_semi")
    val labels = mine.where(col("rk") === 1 && col("label").isNotNull).select("id", "label")
    CandidateResult(mine.select(columns.map(col): _*), labels,
                    err.join(labels, Seq("id"), "left_anti"))
  }
}
