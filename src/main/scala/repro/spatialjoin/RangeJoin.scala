package repro.spatialjoin

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Grid-binned spatial distance self-join.
  *
  * This is the spatial-database substrate Sparcle needs (the paper delegates
  * to PostGIS): all pairs of records strictly within distance `d` of each
  * other, computed as an equi-join on grid cells of side `d`. Each point
  * belongs to one home cell; the build side is replicated into its 3×3 cell
  * neighborhood so every pair within `d` shares exactly one join key. The
  * candidate pairs are then filtered by exact Euclidean distance.
  *
  * Input contract ("points" frame): columns `id: long`, `x: double`,
  * `y: double` (planar meters), `value: string` (nullable). Output columns:
  * `r1, r2, v1, v2, dist` with `r1 != r2` and `dist < d`; both orientations
  * of every pair are emitted, matching the paper's DistanceMatrix (Fig. 3c).
  */
object RangeJoin {

  /** All ordered pairs (r1, r2) with Euclidean distance strictly less than
    * `d`. Null-valued records participate on both sides (the error detector
    * and candidate generator decide how to treat null values).
    */
  def pairs(points: DataFrame, d: Double): DataFrame = pairsAsym(points, points, d)

  /** Asymmetric variant: pairs (r1 from `probe`, r2 from `build`) within
    * strict distance `d`, excluding identical ids. Used by the iterative kNN
    * join, where only a shrinking subset of probes still needs neighbors.
    * Both frames follow the points contract.
    */
  def pairsAsym(probe: DataFrame, build: DataFrame, d: Double): DataFrame = {
    require(d > 0, s"range distance must be positive, got $d")
    val l = probe.select(
      col("id").as("r1"), col("x").as("x1"), col("y").as("y1"), col("value").as("v1"),
      floor(col("x") / d).cast("long").as("cx"),
      floor(col("y") / d).cast("long").as("cy"),
    )
    val r = build.select(
      col("id").as("r2"), col("x").as("x2"), col("y").as("y2"), col("value").as("v2"),
      floor(col("x") / d).cast("long").as("bx"),
      floor(col("y") / d).cast("long").as("by"),
    )
      .withColumn("dx", explode(array(lit(-1), lit(0), lit(1))))
      .withColumn("dy", explode(array(lit(-1), lit(0), lit(1))))
      .select(col("r2"), col("x2"), col("y2"), col("v2"),
              (col("bx") + col("dx")).as("cx"), (col("by") + col("dy")).as("cy"))

    l.join(r, Seq("cx", "cy"))
      .where(col("r1") =!= col("r2"))
      .withColumn("dist", sqrt(pow(col("x1") - col("x2"), 2) + pow(col("y1") - col("y2"), 2)))
      .where(col("dist") < d)
      .select("r1", "r2", "v1", "v2", "dist")
  }

  /** Exact-location self-join: pairs of distinct records at identical
    * coordinates. This is the degenerate "d → 0" join that classic
    * denial-constraint systems (HoloClean et al.) effectively perform when
    * they equi-join on (Latitude, Longitude). Output matches [[pairs]] with
    * `dist` fixed at 0.
    */
  def exactPairs(points: DataFrame): DataFrame = {
    val probe = points.select(col("id").as("r1"), col("x"), col("y"), col("value").as("v1"))
    val build = points.select(col("id").as("r2"), col("x"), col("y"), col("value").as("v2"))
    probe.join(build, Seq("x", "y"))
      .where(col("r1") =!= col("r2"))
      .select(col("r1"), col("r2"), col("v1"), col("v2"), lit(0.0).as("dist"))
  }
}
