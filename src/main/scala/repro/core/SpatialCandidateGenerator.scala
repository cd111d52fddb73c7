package repro.core

import scala.collection.mutable

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StringType

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
  * one shuffle-free pass over the input points; tests reproducing the
  * paper's worked example inject the paper's figures directly.
  */
final case class ValueStats(counts: Map[String, Long], total: Long) {

  /** Count(v, D) of the `value` column, 1 for a value not in `counts`, read
    * from a literal map.
    */
  def count: Column = coalesce(typedLit(counts).apply(col("value")), lit(1L))

  /** The most frequent value (ties: the smallest), if any value is non-null. */
  def modal: Option[String] =
    if (counts.isEmpty) None else Some(counts.minBy { case (v, n) => (-n, v) }._1)
}

object ValueStats {

  /** The statistics of `points`, counted per input partition and merged on
    * the driver: one job, no shuffle. The same pass checks the points
    * contract: a `string` value column, and a non-null `id` with finite `x`
    * and `y` on every record. Unique ids are assumed, not checked (that
    * would take a shuffle).
    */
  def of(points: DataFrame): ValueStats = {
    val valueType = points.schema("value").dataType
    require(valueType == StringType, s"points: value must be a string column, got $valueType")
    val parts = points.select(col("id"), col("x").cast("double"), col("y").cast("double"), col("value"))
      .rdd.mapPartitions { rows =>
        val counts = mutable.HashMap.empty[String, Long]
        var total = 0L
        var bad: Option[String] = None
        rows.foreach { r =>
          def finite(i: Int) = !r.isNullAt(i) && r.getDouble(i).isFinite
          if (bad.isEmpty) {
            if (r.isNullAt(0)) bad = Some(s"null id (x=${r.get(1)}, y=${r.get(2)})")
            else if (!finite(1) || !finite(2))
              bad = Some(s"id ${r.get(0)}: non-finite coordinates (${r.get(1)}, ${r.get(2)})")
          }
          if (!r.isNullAt(3)) counts(r.getString(3)) = counts.getOrElse(r.getString(3), 0L) + 1
          total += 1
        }
        Iterator((counts.toMap, total, bad))
      }.collect()
    parts.flatMap(_._3).headOption.foreach(b => throw new IllegalArgumentException(s"points: $b"))
    ValueStats(
      parts.iterator.flatMap(_._1).toSeq.groupMapReduce(_._1)(_._2)(_ + _),
      parts.map(_._2).sum)
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

  /** Phases 1–3 for every cell of `hist` (built by [[Histogram.of]]) in
    * one pass partitioned by cell ([[Histogram.cell]]), erroneous or not: a
    * cell's candidates depend only on its own histogram rows.
    *
    * One row per candidate kept by the MinProb cutoff, for every cell with at
    * least one candidate; a cell whose rows carry no non-null value keeps its
    * one row, with a null `value`. Columns: [[CandidateColumns]] plus `v1`
    * (the cell's own value), `totalW` (its total neighbour weight),
    * `detected` (the detector's verdict), `rk` (rank by normProb) and `label`
    * (its Phase-3 label, or null).
    */
  def perCell(points: DataFrame, hist: DataFrame, stats: ValueStats, params: CandGenParams,
              extraAttrs: Seq[DataFrame] = Nil): DataFrame = {
    val byCell = Window.partitionBy(Histogram.cell(hist): _*)
    val byProb = byCell.orderBy(col("normProb").desc, col("value"))
    val candidate = col("value").isNotNull

    // ---- Phase 1: nearby co-occurrences plus the original value.
    val phase1 = hist
      .withColumn("nearW", when(candidate, coalesce(col("nearW"), lit(0.0))))
      .withColumn("isOrig", candidate && (col("value") <=> col("v1")))
      .withColumn("sumW", when(col("nearW") > 0, col("nearW")).when(candidate, lit(params.defaultWeight)))

    // ---- Phase 2: Naive-Bayes probability with the spatial term.
    var scored = phase1
      .withColumn("cntV", stats.count)
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
    CandidateResult(mine.where(col("value").isNotNull).select(columns.map(col): _*), labels,
                    err.join(labels, Seq("id"), "left_anti"))
  }
}
