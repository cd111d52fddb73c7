package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** A candidate's score in each host format. */
final case class Formats(viol: Double, p: Double, fg: Double)

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

  /** The three formats of a candidate with weight `nearW` in a cell of total
    * neighbour weight `totalW`; `p` is 0 in a cell without neighbour weight.
    */
  def formats(nearW: Double, totalW: Double): Formats =
    Formats(totalW - nearW, if (totalW > 0) nearW / totalW else 0.0, 2.0 * nearW - totalW)

  /** [[formats]] for candidates of the DistanceMatrix `dm`: adds `totalW`
    * (Σ w over the rows of `dm` with a non-null `v2`), `viol` (AimNet, §5.1,
    * Fig. 4a), `p` (Baran, §5.2, Fig. 4b) and `fg` (HoloClean/MLNClean,
    * §5.3, Fig. 4c) to the candidate rows.
    */
  def allFormats(candidates: DataFrame, dm: DataFrame): DataFrame = {
    val of = udf((nearW: Double, totalW: Double) => formats(nearW, totalW))
    val totalW = Histogram.of(dm).groupBy("id").agg(sum("nearW").as("totalW"))
    candidates.join(totalW, Seq("id"), "left")
      .withColumn("totalW", coalesce(col("totalW"), lit(0.0)))
      .withColumn("f", of(col("nearW"), col("totalW")))
      .select(candidates.columns.toSeq.map(col) ++ Seq(col("totalW"), col("f.*")): _*)
  }
}
