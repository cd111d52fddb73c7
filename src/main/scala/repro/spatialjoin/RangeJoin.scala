package repro.spatialjoin

import org.apache.spark.sql.{Column, DataFrame, Encoder, Encoders, Row}
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
  * SIGMOD 1996), which copies an object only into the partitions its extent
  * reaches. Space is cut into grid cells of side 2d. A point is copied into
  * every cell its square of half-side d reaches: cells `floor((x − d) / 2d)`
  * to `floor((x + d) / 2d)` in x, likewise in y. That is 4 cells for a point
  * in general position and fewer on a cell border (the 3×3 cells of side d
  * gave 9); rounding adds a third cell in an axis only within a few ulps of
  * an odd multiple of d. Its copy in its home cell
  * `(floor(x / 2d), floor(y / 2d))` is its *probe*.
  *
  * Exactness: the computed distance of a pair is at least the computed
  * |a.x − b.x|, and IEEE subtraction rounds monotonically, so a pair with
  * `dist < d` has `b.x − d ≤ a.x ≤ b.x + d` after rounding, and likewise in
  * y. Division by 2d and `floor` are monotone too, so the probe cell of `a`
  * lies in the span of `b`'s copies: exactly one copy of `b` meets the probe
  * of `a`.
  *
  * The copies are read with one map task per core (`coalesce`, which does
  * nothing on an input with that many partitions or fewer). One exchange, one
  * partition per core, hash-partitions them by cell; a sort within each
  * partition by cell and id lays every cell's copies out as one run, and one
  * loop per run ([[scan]]) pairs its probes with all its copies within exact
  * Euclidean distance `d`. The public joins emit the loop's pairs as rows;
  * `DistanceMatrix.neighbours` and each radius round of [[KnnJoin]] reduce
  * them inside the loop instead.
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

  /** The copies of the range join, grouped by grid cell of side 2d. */
  private[repro] def cells(points: DataFrame, d: Double): Cells = {
    require(d > 0, s"range distance must be positive, got $d")
    val side = 2 * d
    def cell(c: Column): Column = floor(c / side)
    def span(c: Column): Column = explode(sequence(cell(c - d), cell(c + d)))
    val spread = perCore(points).withColumn("cx", span(col("x"))).withColumn("cy", span(col("y")))
    group(copies(spread, col("cx"), col("cy"), col("cx") === cell(col("x")) && col("cy") === cell(col("y"))),
          _ < d)
  }

  /** The copies of the exact-location join: a group-by on the location,
    * whose cell key is the coordinates' bit patterns (a key on the doubles
    * themselves would be normalized by Spark and re-shuffled downstream).
    */
  private[repro] def locations(points: DataFrame): Cells =
    group(copies(perCore(points), bits(col("x")), bits(col("y")), lit(true)), _ == 0.0)

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

  /** The rows `f` gives for every probe of `cells`, by [[scan]] in each
    * cell, encoded by `enc` (which the caller builds once, not per call).
    */
  private[repro] def reduce[A](cells: Cells, enc: Encoder[A])
                              (f: (Copy, Iterator[(Copy, Double)]) => IterableOnce[A]): DataFrame = {
    val near = cells.near
    cells.frame.mapPartitions(rows => runs(rows).flatMap(scan(_, near)(f)))(enc).toDF()
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

  /** `points` read with at most one map task per core of the job. */
  private def perCore(points: DataFrame): DataFrame =
    points.coalesce(points.sparkSession.sparkContext.defaultParallelism)

  /** IEEE bits of a coordinate, with −0.0 folded into 0.0. */
  private val bits = udf((v: Double) => java.lang.Double.doubleToLongBits(v + 0.0))

  /** Each point's [[Copy]] in cell `cx, cy`. */
  private def copies(points: DataFrame, cx: Column, cy: Column, probe: Column): DataFrame =
    points.select(cx.as("cx"), cy.as("cy"), col("id"), col("x"), col("y"), col("value"), probe.as("probe"))

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

  private val pairEncoder = Encoders.product[Pair]

  /** The pair emitter: every pair [[scan]] finds, as a row. */
  private def emit(cells: Cells): DataFrame =
    reduce(cells, pairEncoder)((a, bs) => bs.map { case (b, dist) => Pair(a.id, b.id, a.value, b.value, dist) })
}
