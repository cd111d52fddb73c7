package repro.spatialjoin

import scala.reflect.runtime.universe.TypeTag

import org.apache.spark.sql.{Column, DataFrame, Encoders, Row}
import org.apache.spark.sql.functions._

/** A point's copy in a grid cell; the copy in its home cell is its `probe`. */
final case class Copy(id: Long, x: Double, y: Double, value: String, probe: Boolean)

/** A pair of the join: `r2` lies within the distance of probe `r1`. */
final case class Pair(r1: Long, r2: Long, v1: String, v2: String, dist: Double)

/** Copies in runs of equal cell (`frame`: `cx, cy` and the [[Copy]] fields,
  * sorted by `cx, cy, id` within each partition) and the join's distance test.
  */
final case class Cells(frame: DataFrame, near: Double => Boolean)

/** Grid-binned spatial distance self-join.
  *
  * This is the spatial-database substrate Sparcle needs (the paper delegates
  * to PostGIS): all pairs of records strictly within distance `d` of each
  * other, computed partition-locally in the manner of PBSM (Patel & DeWitt,
  * SIGMOD 1996). Space is cut into grid cells of side `d`. Every point is
  * copied into the 3×3 cells around its home cell, the copy in the home cell
  * being its *probe*. One exchange, one partition per core, hash-partitions
  * the copies by cell; a sort within each partition by cell and id lays
  * every cell's copies out as one run, and one loop per run ([[scan]]) pairs
  * its probes with all its copies within exact Euclidean distance `d`. A
  * pair within `d` lies in neighbouring cells, so exactly one copy of the
  * second point meets the probe of the first. The public joins emit the
  * loop's pairs as rows; `DistanceMatrix.neighbours` and each radius round
  * of [[KnnJoin]] reduce them inside the loop instead.
  *
  * Input contract ("points" frame): columns `id: long`, `x: double`,
  * `y: double` (planar meters), `value: string` (nullable), unique ids.
  * Output columns: `r1, r2, v1, v2, dist` with `r1 != r2` and `dist < d`;
  * both orientations of every pair are emitted, matching the paper's
  * DistanceMatrix (Fig. 3c).
  */
object RangeJoin {

  /** All ordered pairs (r1, r2) with Euclidean distance strictly less than
    * `d`. Null-valued records participate on both sides (the error detector
    * and candidate generator decide how to treat null values).
    */
  def pairs(points: DataFrame, d: Double): DataFrame = emit(cells(points, d))

  /** Exact-location self-join: pairs of distinct records at identical
    * coordinates. This is the degenerate "d → 0" join that classic
    * denial-constraint systems (HoloClean et al.) effectively perform when
    * they equi-join on (Latitude, Longitude). Output matches [[pairs]] with
    * `dist` 0.
    */
  def exactPairs(points: DataFrame): DataFrame = emit(locations(points))

  /** The copies of the range join, grouped by grid cell of side `d`. */
  private[repro] def cells(points: DataFrame, d: Double): Cells =
    group(copies(points, grid(d), reach = 1), _ < d)

  /** The copies of the exact-location join: a group-by on the location,
    * whose cell key is the coordinates' bit patterns (a key on the doubles
    * themselves would be normalized by Spark and re-shuffled downstream).
    */
  private[repro] def locations(points: DataFrame): Cells =
    group(copies(points, (bits(col("x")), bits(col("y"))), reach = 0), _ == 0.0)

  /** The join loop of one cell: `f` of each probe, in id order, with
    * the cell's copies (and their distance) that pass `near`, in id order.
    * A copy with the probe's id is not its neighbour. The distance is
    * Spark's `sqrt(pow(dx, 2) + pow(dy, 2))`, bit for bit.
    */
  private def scan[A](ps: Seq[Copy], near: Double => Boolean)
                     (f: (Copy, Iterator[(Copy, Double)]) => IterableOnce[A]): Seq[A] =
    ps.filter(_.probe).flatMap { a =>
      f(a, ps.iterator.filter(_.id != a.id)
        .map(b => (b, math.sqrt(StrictMath.pow(a.x - b.x, 2) + StrictMath.pow(a.y - b.y, 2))))
        .filter { case (_, dist) => near(dist) })
    }

  /** The rows `f` gives for every probe of `cells`, by [[scan]] in each cell. */
  private[repro] def reduce[A <: Product : TypeTag](cells: Cells)
                                                   (f: (Copy, Iterator[(Copy, Double)]) => IterableOnce[A]): DataFrame = {
    val near = cells.near
    cells.frame.mapPartitions(rows => runs(rows).flatMap(scan(_, near)(f)))(Encoders.product[A]).toDF()
  }

  /** The runs of equal cell key in a partition of sorted copies. */
  private def runs(rows: Iterator[Row]): Iterator[Seq[Copy]] = new Iterator[Seq[Copy]] {
    private val it = rows.buffered
    def hasNext: Boolean = it.hasNext
    def next(): Seq[Copy] = {
      val (cx, cy) = (it.head.getLong(0), it.head.getLong(1))
      val run = Vector.newBuilder[Copy]
      while (it.hasNext && it.head.getLong(0) == cx && it.head.getLong(1) == cy) {
        val r = it.next()
        run += Copy(r.getLong(2), r.getDouble(3), r.getDouble(4), r.getString(5), r.getBoolean(6))
      }
      run.result()
    }
  }

  /** Grid cell of side `d`. */
  private def grid(d: Double): (Column, Column) = {
    require(d > 0, s"range distance must be positive, got $d")
    (floor(col("x") / d).cast("long"), floor(col("y") / d).cast("long"))
  }

  /** IEEE bits of a coordinate, with −0.0 folded into 0.0. */
  private val bits = udf((v: Double) => java.lang.Double.doubleToLongBits(v + 0.0))

  /** Each point's [[Copy]] in each cell `cx, cy` within `reach` of its home cell. */
  private def copies(points: DataFrame, home: (Column, Column), reach: Int): DataFrame = {
    val offsets = array((-reach to reach).map(lit): _*)
    points
      .select(col("id"), col("x"), col("y"), col("value"), home._1.as("hx"), home._2.as("hy"))
      .withColumn("dx", explode(offsets))
      .withColumn("dy", explode(offsets))
      .select(
        (col("hx") + col("dx")).as("cx"), (col("hy") + col("dy")).as("cy"),
        col("id"), col("x"), col("y"), col("value"), (col("dx") === 0 && col("dy") === 0).as("probe"))
  }

  /** The join's one exchange: the copies hash-partitioned by cell into one
    * partition per core of the job (`defaultParallelism`), then sorted by
    * cell and id inside each partition, so every cell's copies form one run
    * in an order fixed by the input alone. The sort spills to disk, and
    * nothing is aggregated.
    */
  private def group(copies: DataFrame, near: Double => Boolean): Cells =
    Cells(copies.repartition(copies.sparkSession.sparkContext.defaultParallelism, col("cx"), col("cy"))
            .sortWithinPartitions("cx", "cy", "id"),
          near)

  /** The pair emitter: every pair [[scan]] finds, as a row. */
  private def emit(cells: Cells): DataFrame =
    reduce(cells)((a, bs) => bs.map { case (b, dist) => Pair(a.id, b.id, a.value, b.value, dist) })
}
