package repro.core

import org.apache.spark.sql.{Column, DataFrame}
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
    * WHERE v2 IS NOT NULL GROUP BY 1, 2, 3`, over the DistanceMatrix or over
    * [[DistanceMatrix.neighbours]]. A record's pair with itself adds its own
    * value's row without weight (a null `nearW` when no neighbour carries
    * that value), or, for a null cell, one row with a null `value`, so every
    * record has a row. A cell key `(cx, cy)` of the input is kept and leads
    * the grouping, so the join's partitioning is reused.
    */
  def of(dm: DataFrame): DataFrame =
    dm.where(col("v2").isNotNull || col("r1") === col("r2"))
      .groupBy(cellKey(dm) ++ Seq(col("r1").as("id"), col("v1"), col("v2").as("value")): _*)
      .agg(sum(when(col("r1") =!= col("r2"), col("w"))).as("nearW"))

  /** [[of]] over the DistanceMatrix `dm` plus each non-null cell's row for
    * its own value: the rows the pipeline's relation carries as self pairs.
    */
  def withOwn(dm: DataFrame, points: DataFrame): DataFrame =
    of(dm.unionByName(DistanceMatrix.selfPairs(points.where(col("value").isNotNull))))

  /** The columns identifying a cell's rows in a frame derived from [[of]]:
    * the join's cell key, when present, and `id`.
    */
  def cell(df: DataFrame): Seq[Column] = cellKey(df) :+ col("id")

  private def cellKey(df: DataFrame): Seq[Column] =
    Seq("cx", "cy").filter(df.columns.contains).map(col)
}
