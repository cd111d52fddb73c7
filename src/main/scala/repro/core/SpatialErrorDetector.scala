package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.WindowSpec
import org.apache.spark.sql.functions._

/** Spatial error detector (§3.3, Algorithm 1).
  *
  * Every DistanceMatrix row with v1 ≠ v2 moves *both* cells to the erroneous
  * set (at least one of the two conflicting records must be wrong, and we
  * cannot yet tell which). Over the neighbour-value histogram this is: a cell
  * is erroneous when `hist` holds a non-own value for it, or when it is null
  * — as in every host system the paper plugs into, missing cells are
  * erroneous by definition. Null-valued neighbours never assert a conflict.
  */
object SpatialErrorDetector {

  /** A `hist` row that conflicts: the cell's own value is non-null and this
    * neighbour value differs from it.
    */
  val conflict: Column = col("v1").isNotNull && col("value") =!= col("v1")

  /** Per-cell detection inside a pass over `hist` partitioned by `byCell`:
    * any conflicting row, or a null own value.
    *
    * Under a kNN constraint the relation is asymmetric, so a conflict can
    * flag its `r2` cell from the other cell's neighbourhood only. Such a
    * cell's own neighbours all share its value, so its own value is its only
    * candidate and it is never repaired; the per-cell pass therefore needs
    * no `r2` side, while [[erroneousCells]] reports it.
    */
  def detected(byCell: WindowSpec): Column =
    max(conflict).over(byCell) || col("v1").isNull

  /** Cells (record ids, since each pipeline run cleans one attribute) deemed
    * erroneous: both participants of a value conflict in `dm`, plus null
    * cells. Result: single-column frame `id`.
    */
  def erroneousCells(points: DataFrame, dm: DataFrame): DataFrame = {
    val fromHist = Histogram.of(dm).where(conflict).select("id")
    val fromR2 = dm.where(col("v1").isNotNull && col("v2").isNotNull && col("v1") =!= col("v2"))
      .select(col("r2").as("id"))
    val fromNulls = points.where(col("value").isNull).select("id")
    fromHist.unionByName(fromR2).unionByName(fromNulls).distinct()
  }

  /** Complement of [[erroneousCells]] over the input: cells currently deemed
    * clean. Result: single-column frame `id`.
    */
  def cleanCells(points: DataFrame, erroneous: DataFrame): DataFrame =
    points.select("id").join(erroneous, Seq("id"), "left_anti")
}
