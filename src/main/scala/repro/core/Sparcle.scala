package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

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
    keepOriginalMargin: Double = 0.25,
)

/** Everything a run produces, for inspection by tests and benches. Every
  * frame is lazy and nothing is persisted: collecting `repairs` runs the
  * spatial join, one histogram aggregation and one per-cell pass.
  *
  * @param dm         the DistanceMatrix (a debug and oracle view; the
  *                   pipeline reads its histogram, not the matrix)
  * @param erroneous  cell ids flagged by the spatial error detector
  * @param candidates post-cutoff candidate lists with all formulator scores
  * @param labels     Phase-3 auto-labels
  * @param repairs    cells whose final value differs from the input:
  *                   `id, oldValue (nullable), newValue`
  */
final case class SparcleResult(
    dm: DataFrame,
    erroneous: DataFrame,
    candidates: DataFrame,
    labels: DataFrame,
    repairs: DataFrame,
)

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
  * Execution: the spatial join's output, each record's pair with itself
  * included, is aggregated once into the neighbour-value histogram
  * ([[Histogram]]), and one pass partitioned by cell derives the detector's
  * verdict, Phases 1–3, the formulator scores and the corrector's choice
  * from it. The histogram and the pass group by the join's cell key and the
  * record id, which the join's hash partitioning already satisfies: the join
  * is the call's only shuffle. The layer functions
  * (`SpatialErrorDetector.erroneousCells`, `SpatialCandidateGenerator.generate`,
  * `SpatialInputFormulator.allFormats`, [[repairsFrom]]) are views over the
  * same code, taking the DistanceMatrix as their input.
  */
object Sparcle {

  /** Candidate columns plus the formulator scores, as in `SparcleResult.candidates`. */
  private val ScoredColumns =
    SpatialCandidateGenerator.CandidateColumns ++ Seq("totalW", "viol", "p", "fg")

  def clean(points: DataFrame, params: SparcleParams): SparcleResult =
    run(points, params, ValueStats.of(points), fallback = None)

  /** The pipeline with the corpus statistics given.
    *
    * @param fallback the host's value for detected cells without any
    *                 candidate (isolated null cells), or None to leave them
    *                 unrepaired
    */
  private[repro] def run(points: DataFrame, params: SparcleParams, stats: ValueStats,
                         fallback: Option[String]): SparcleResult = {
    val neighbours = DistanceMatrix.neighbours(points, params.constraint)
    val hist = Histogram.of(neighbours)
    val scored = SpatialInputFormulator.scores(
      SpatialCandidateGenerator.perCell(points, hist, stats, params.candGen))

    // A detected cell without any candidate — a null cell whose neighbours
    // are all null or absent — takes the fallback.
    val repairs = choose(scored, params.keepOriginalMargin)
      .where(col("detected"))
      .select(col("id"), col("v1").as("oldValue"),
              coalesce(col("newValue"), lit(fallback.orNull)).as("newValue"))
      .where(col("newValue").isNotNull && changed)

    val dm = DistanceMatrix.of(neighbours)
    val erroneous = SpatialErrorDetector.erroneousCells(points, dm)
    val cand = SpatialCandidateGenerator.restrict(scored, erroneous, ScoredColumns)
    SparcleResult(dm, erroneous, cand.candidates, cand.labels, repairs)
  }

  /** Pick the final value per erroneous cell and keep only actual changes.
    *
    * Selection: Phase-3 label if present. Otherwise the candidate minimizing
    * the weighted violation score (ties: normProb desc, value asc), except
    * that the cell's original value — when it survived as a candidate — is
    * kept unless the winner's violation advantage exceeds
    * `margin × totalW` (the initial-value bias).
    */
  def repairsFrom(points: DataFrame, erroneous: DataFrame,
                  scoredCandidates: DataFrame, labels: DataFrame,
                  margin: Double = 0.25): DataFrame = {
    val chosen = choose(scoredCandidates.join(labels, Seq("id"), "left"), margin)
    points.select(col("id"), col("value").as("oldValue"))
      .join(erroneous, Seq("id"))
      .join(chosen.select("id", "newValue"), Seq("id"))
      .where(changed)
      .select("id", "oldValue", "newValue")
  }

  private val changed = col("oldValue").isNull || col("oldValue") =!= col("newValue")

  /** The corrector over scored candidate rows carrying their cell's `label`:
    * one row per cell — its least-violating candidate — with `newValue`
    * (null for a cell without candidates).
    */
  private def choose(scored: DataFrame, margin: Double): DataFrame = {
    val byCell = Window.partitionBy(Histogram.cell(scored): _*)
    val byViol = byCell.orderBy(col("viol").asc, col("normProb").desc, col("value").asc)
    scored
      .withColumn("origValue", max(when(col("isOrig"), col("value"))).over(byCell))
      .withColumn("origViol", max(when(col("isOrig"), col("viol"))).over(byCell))
      .withColumn("pick", row_number().over(byViol))
      .where(col("pick") === 1)
      .withColumn("newValue", coalesce(col("label"),
        when(col("origValue").isNotNull &&
             col("origViol") - col("viol") <= lit(margin) * col("totalW"),
             col("origValue"))
          .otherwise(col("value"))))
  }

  /** Apply repairs to the input: returns `id, x, y, value` with repaired
    * values substituted.
    */
  def applyRepairs(points: DataFrame, repairs: DataFrame): DataFrame =
    points.join(repairs.select(col("id"), col("newValue")), Seq("id"), "left")
      .select(col("id"), col("x"), col("y"),
              coalesce(col("newValue"), col("value")).as("value"))
}
