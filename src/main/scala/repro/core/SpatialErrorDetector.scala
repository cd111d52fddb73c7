package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Spatial error detector (§3.3, Algorithm 1).
  *
  * Every DistanceMatrix row with v1 ≠ v2 moves *both* cells to the erroneous
  * set (at least one of the two conflicting records must be wrong, and we
  * cannot yet tell which). Over the neighbour-value histogram this is: a cell
  * is erroneous when its histogram holds a non-own value, or when it is null
  * — as in every host system the paper plugs into, missing cells are
  * erroneous by definition. Null-valued neighbours never assert a conflict.
  */
object SpatialErrorDetector {

  /** The verdict for one cell with histogram `hist`: some neighbour value
    * differs from its own value, or its own value is null.
    *
    * Under a kNN constraint a conflict can flag its `r2` cell from the other
    * cell's neighbourhood only. Such a cell's own neighbours all share its
    * value, which is then its only candidate: it is never repaired, so the
    * verdict needs no `r2` side, while [[erroneousCells]] reports it.
    */
  def detected(hist: Histogram): Boolean =
    hist.own == null || (0 until hist.size).exists(!hist.isOwn(_))

  /** Cells (record ids, since each pipeline run cleans one attribute) deemed
    * erroneous: both participants of a value conflict in `dm`, plus null
    * cells. Result: single-column frame `id`.
    */
  def erroneousCells(points: DataFrame, dm: DataFrame): DataFrame = {
    // A null on either side makes the comparison null, which never conflicts.
    val conflicts = dm.where(col("v1") =!= col("v2"))
    conflicts.select(col("r1").as("id"))
      .unionByName(conflicts.select(col("r2").as("id")))
      .unionByName(points.where(col("value").isNull).select("id"))
      .distinct()
  }
}
