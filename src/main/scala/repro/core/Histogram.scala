package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** The neighbour-value histogram (§3.3–§5):
  * `hist(id: long, v1: string, value: string, nearW: double)` — for cell `id`
  * with its own value `v1`, the summed distance weight `nearW` of the
  * neighbours carrying each non-null `value`.
  *
  * The detector needs only "some neighbour value ≠ own value", Phase 1 needs
  * only Σw per (cell, neighbour value), and all three formulators need only
  * that sum and its per-cell total. So Sparcle aggregates the spatial join's
  * output once, with partial aggregation on the map side, and never
  * materializes the DistanceMatrix itself.
  */
object Histogram {

  /** `SELECT r1 AS id, v1, v2 AS value, SUM(w) AS nearW FROM dm
    * WHERE v2 IS NOT NULL GROUP BY 1, 2, 3`.
    */
  def of(dm: DataFrame): DataFrame = aggregate(neighbours(dm))

  /** [[of]] plus, for every non-null cell of `points`, a row for its own
    * value, with a null `nearW` when no neighbour carries that value. The
    * per-cell pass thereby sees each cell's original value as a Phase-1
    * candidate.
    */
  def withOwn(dm: DataFrame, points: DataFrame): DataFrame =
    aggregate(neighbours(dm).unionByName(points.where(col("value").isNotNull).select(
      col("id"), col("value").as("v1"), col("value"), lit(null).cast("double").as("w"))))

  private def neighbours(dm: DataFrame): DataFrame =
    dm.where(col("v2").isNotNull)
      .select(col("r1").as("id"), col("v1"), col("v2").as("value"), col("w"))

  private def aggregate(rows: DataFrame): DataFrame =
    rows.groupBy("id", "v1", "value").agg(sum("w").as("nearW"))
}
