package repro.spatialjoin

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Grid-binned spatial distance self-join.
  *
  * This is the spatial-database substrate Sparcle needs (the paper delegates
  * to PostGIS): all pairs of records strictly within distance `d` of each
  * other, computed partition-locally in the manner of PBSM (Patel & DeWitt,
  * SIGMOD 1996). Space is cut into grid cells of side `d`. Every point is
  * copied into the 3×3 cells around its home cell, the copy in the home cell
  * being its *probe*; one exchange groups the copies by cell, and each cell
  * pairs its probes with all its copies within exact Euclidean distance
  * `d`. A pair within `d` lies in neighbouring cells, so exactly one
  * copy of the second point meets the probe of the first.
  *
  * The join body's output, the *cell pairs*, keeps the cell key `(cx, cy)`
  * and each probe's pair with itself, and is hash-partitioned by the key: a
  * caller grouping by `(cx, cy, r1)` needs no further exchange. The public
  * joins are views over it that drop the key and the self pairs.
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
  def pairs(points: DataFrame, d: Double): DataFrame = view(cellPairs(points, d))

  /** Asymmetric variant: pairs (r1 from `probe`, r2 from `build`) within
    * strict distance `d`, excluding identical ids. Used by the iterative kNN
    * join, where only a shrinking subset of probes still needs neighbors.
    * Both frames follow the points contract.
    */
  def pairsAsym(probe: DataFrame, build: DataFrame, d: Double): DataFrame =
    view(join(
      copies(probe, grid(d), reach = 0, probes = true, builds = false)
        .unionByName(copies(build, grid(d), reach = 1, probes = false, builds = true)),
      _ < d))

  /** Exact-location self-join: pairs of distinct records at identical
    * coordinates. This is the degenerate "d → 0" join that classic
    * denial-constraint systems (HoloClean et al.) effectively perform when
    * they equi-join on (Latitude, Longitude). Output matches [[pairs]] with
    * `dist` 0.
    */
  def exactPairs(points: DataFrame): DataFrame = view(locationPairs(points))

  /** Cell pairs of the range join: `cx, cy, r1, r2, v1, v2, dist`, every
    * pair with `dist < d` plus each record's pair with itself.
    */
  private[repro] def cellPairs(points: DataFrame, d: Double): DataFrame =
    join(copies(points, grid(d), reach = 1, probes = true, builds = true), _ < d)

  /** Cell pairs of the exact-location join: a group-by on the location,
    * whose cell key is the coordinates' bit patterns (a key on the doubles
    * themselves would be normalized by Spark and re-shuffled downstream).
    */
  private[repro] def locationPairs(points: DataFrame): DataFrame =
    join(copies(points, (bits(col("x")), bits(col("y"))), reach = 0, probes = true, builds = true),
         _ === 0.0)

  /** Grid cell of side `d`. */
  private def grid(d: Double): (Column, Column) = {
    require(d > 0, s"range distance must be positive, got $d")
    (floor(col("x") / d).cast("long"), floor(col("y") / d).cast("long"))
  }

  /** IEEE bits of a coordinate, with −0.0 folded into 0.0. */
  private val bits = udf((v: Double) => java.lang.Double.doubleToLongBits(v + 0.0))

  /** Each point's copies in the cells within `reach` of its home cell:
    * `cx, cy, p`, where `p` carries the point, `probe` (set on the home copy
    * when `probes`) and `build` (set when `builds`).
    */
  private def copies(points: DataFrame, home: (Column, Column), reach: Int,
                     probes: Boolean, builds: Boolean): DataFrame = {
    val offsets = array((-reach to reach).map(lit): _*)
    points
      .select(col("id"), col("x"), col("y"), col("value"), home._1.as("hx"), home._2.as("hy"))
      .withColumn("dx", explode(offsets))
      .withColumn("dy", explode(offsets))
      .select(
        (col("hx") + col("dx")).as("cx"), (col("hy") + col("dy")).as("cy"),
        struct(col("id"), col("x"), col("y"), col("value"),
               (lit(probes) && col("dx") === 0 && col("dy") === 0).as("probe"),
               lit(builds).as("build")).as("p"))
  }

  /** The one join body: group the copies by cell, then pair each probe
    * with every build copy of its cell whose distance passes `near`. The
    * copies are hash-partitioned by cell before the grouping, so the
    * grouping itself runs after the exchange and no partial lists are built
    * on the map side.
    */
  private def join(copies: DataFrame, near: Column => Column): DataFrame =
    copies.repartition(col("cx"), col("cy"))
      .groupBy("cx", "cy").agg(collect_list("p").as("ps"))
      .select(col("cx"), col("cy"), col("ps"), explode(filter(col("ps"), _("probe"))).as("a"))
      .select(col("cx"), col("cy"), col("a"), explode(col("ps")).as("b"))
      .withColumn("dist", sqrt(pow(col("a.x") - col("b.x"), 2) + pow(col("a.y") - col("b.y"), 2)))
      .where(col("b.build") && near(col("dist")))
      .select(col("cx"), col("cy"), col("a.id").as("r1"), col("b.id").as("r2"),
              col("a.value").as("v1"), col("b.value").as("v2"), col("dist"))

  /** The public pair relation: cell pairs without the key and self pairs. */
  private def view(cellPairs: DataFrame): DataFrame =
    cellPairs.where(col("r1") =!= col("r2")).select("r1", "r2", "v1", "v2", "dist")
}
