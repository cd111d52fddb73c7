package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Spatial input formulators (§5): translate Sparcle's candidate evidence
  * into the input format of the host system's error-correction module.
  *
  * All three formats derive from the neighbour-value histogram:
  * `nearW(id, v)` — the summed weight of the cell's neighbors carrying value
  * v (carried on the candidates frame) — and `totalW(id)` — the cell's total
  * neighbor weight. For a candidate v of cell id:
  *
  *  - AimNet violation score (§5.1):      viol = totalW − nearW(v)   (lower is better)
  *  - Baran probability vector (§5.2):    p    = nearW(v) / totalW   (higher is better)
  *  - HoloClean/MLNClean factor sum (§5.3): fg  = nearW(v) − (totalW − nearW(v))
  *                                              = 2·nearW(v) − totalW (higher is better)
  *
  * With W ≡ 1 these degrade to the hosts' original violation counts /
  * co-occurrence probabilities / ±1 factor sums, which is exactly how the
  * paper presents the injection (Fig. 4).
  */
object SpatialInputFormulator {

  /** Total neighbor weight per cell: Σ nearW over the cell's histogram rows,
    * i.e. Σ w over DistanceMatrix rows of r1 with a non-null neighbor value.
    * Columns: `id`, `totalW`.
    */
  def totalWeights(dm: DataFrame): DataFrame =
    Histogram.of(dm).groupBy("id").agg(sum("nearW").as("totalW"))

  /** All three host formats for candidate rows carrying `nearW` and `totalW`:
    * adds `viol` (AimNet, §5.1, Fig. 4a), `p` (Baran, §5.2, Fig. 4b; 0 for a
    * candidate with no proximity co-occurrence) and `fg` (HoloClean/MLNClean,
    * §5.3, Fig. 4c).
    */
  def scores(candidates: DataFrame): DataFrame =
    candidates
      .withColumn("viol", col("totalW") - col("nearW"))
      .withColumn("p",
        when(col("totalW") > 0, col("nearW") / col("totalW")).otherwise(lit(0.0)))
      .withColumn("fg", lit(2.0) * col("nearW") - col("totalW"))

  /** [[scores]] for candidates of the DistanceMatrix `dm`.
    * Columns: candidates ++ (`totalW`, `viol`, `p`, `fg`).
    */
  def allFormats(candidates: DataFrame, dm: DataFrame): DataFrame =
    scores(candidates.join(totalWeights(dm), Seq("id"), "left")
      .withColumn("totalW", coalesce(col("totalW"), lit(0.0))))
}
