package repro.core

import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** One cell's neighbour-value histogram (§3.3–§5): for a cell with own
  * value `own` and its `neighbours`' values and weights, the summed weight
  * `nearW` per non-null value, in the order values first occur, each sum in
  * neighbour order. A non-null own value has an entry (0.0 when no
  * neighbour carries it).
  *
  * The detector needs only "some neighbour value ≠ own value", Phase 1 needs
  * only Σw per (cell, neighbour value), and all three formulators need only
  * that sum and its per-cell total. So Sparcle reduces each cell's
  * neighbours to this histogram as the join finds them, and never
  * materializes the DistanceMatrix itself.
  */
final class Histogram(val own: String, neighbours: IterableOnce[(String, Double)]) {

  /** `(value, nearW)` per value. */
  val entries: Seq[(String, Double)] = {
    val sums = mutable.LinkedHashMap.empty[String, Double]
    if (own != null) sums(own) = 0.0
    neighbours.iterator.foreach { case (v, w) => if (v != null) sums(v) = sums.getOrElse(v, 0.0) + w }
    sums.toSeq
  }
}

object Histogram {

  /** `SELECT r1 AS id, v1, v2 AS value, SUM(w) AS nearW FROM dm
    * WHERE v2 IS NOT NULL GROUP BY 1, 2, 3` over a DistanceMatrix `dm`.
    */
  def of(dm: DataFrame): DataFrame =
    dm.where(col("v2").isNotNull)
      .groupBy(col("r1").as("id"), col("v1"), col("v2").as("value"))
      .agg(sum("w").as("nearW"))
}
