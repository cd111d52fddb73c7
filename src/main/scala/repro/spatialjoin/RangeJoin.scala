package repro.spatialjoin

import scala.collection.mutable
import scala.reflect.ClassTag

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.{RDD, ShuffledRDD}
import org.apache.spark.sql.{DataFrame, Encoders}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.{DoubleType, LongType, StringType}

/** A pair of the join: `r2` lies within the distance of probe `r1`. */
final case class Pair(r1: Long, r2: Long, v1: String, v2: String, dist: Double)

/** One map task's copies of points for one reduce partition, in primitive
  * columns: copy `i` lies in grid cell `(cx(i), cy(i))` and is point
  * `id(i)` at `(x(i), y(i))` with value `names(code(i))` (code −1: null),
  * the point's probe if `probe(i)`. `names` is the map task's value
  * dictionary, every value its `tally` counts, each once.
  */
private[repro] final case class Block(cx: Array[Long], cy: Array[Long], id: Array[Long], x: Array[Double],
                                      y: Array[Double], code: Array[Int], probe: Array[Boolean], names: Array[String],
                                      tally: Tally)

/** One map task's copies, bucketed by the reduce partition of their cell
  * into growable primitive columns, one bucket per partition.
  */
private[repro] final class Buckets(reducers: Int) {
  private final class Bucket {
    val cx, cy, id = new mutable.ArrayBuilder.ofLong
    val x, y = new mutable.ArrayBuilder.ofDouble
    val code = new mutable.ArrayBuilder.ofInt
    val probe = new mutable.ArrayBuilder.ofBoolean
  }

  private val buckets = Array.fill(reducers)(new Bucket)

  def add(cx: Long, cy: Long, id: Long, x: Double, y: Double, code: Int, probe: Boolean): Unit = {
    val b = buckets(RangeJoin.partition(cx, cy, reducers))
    b.cx.addOne(cx)
    b.cy.addOne(cy)
    b.id.addOne(id)
    b.x.addOne(x)
    b.y.addOne(y)
    b.code.addOne(code)
    b.probe.addOne(probe)
  }

  /** Every reduce partition's block, keyed by its index, with the map task's
    * dictionary and tally; each bucket is dropped once its block is made.
    */
  def blocks(names: Array[String], tally: Tally): Iterator[(Int, Block)] = Iterator.tabulate(reducers) { to =>
    val b = buckets(to)
    buckets(to) = null
    to -> Block(b.cx.result(), b.cy.result(), b.id.result(), b.x.result(), b.y.result(), b.code.result(),
                b.probe.result(), names, tally)
  }
}

/** A join's blocks, shuffled by reduce partition, and its distance test. */
private[repro] final case class Cells(blocks: ShuffledRDD[Int, Block, Block], near: Double => Boolean)

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
  * The join is one RDD shuffle. Its map tasks, at most one per core, read
  * the input's internal rows ([[rows]]), check each against the points
  * contract and count its value, coding it by the task's own dictionary
  * ([[Tallier]]), and make the copies of each valid row; a row that breaks
  * the contract gets none. A copy goes to the reduce partition of its cell
  * (a mixed hash of `(cx, cy)`, one partition per core of the job): each map
  * task fills one bucket of primitive columns per reduce partition
  * ([[Buckets]]), with no object per copy, and at the end of its partition
  * sends each reduce partition one [[Block]]: the bucket's columns with the
  * task's dictionary and [[Tally]]. That is P² blocks per join
  * (P = `defaultParallelism`), keyed by the reduce partition's index under
  * Spark's `HashPartitioner` and written by the context's serializer. A map
  * task holds its partition's copies, about 45 bytes each plus the builders'
  * slack, until it writes them. Each reduce task is one [[Scan]]: it merges
  * its blocks' tallies into the tally of the whole input, recodes each
  * block's values to the merged tally's sorted values, concatenates the
  * blocks into columns, orders them by `(cx, cy, id)` and runs one loop
  * that pairs each probe with the copies of its cell within exact Euclidean
  * distance `d`. The reduce side does not spill: a task holds its whole
  * partition, 29 bytes per copy (id, x, y, value code and probe flag) and 4
  * per cell once the columns are ordered, and at its peak, while it
  * concatenates, its blocks and the concatenated columns, 45 bytes per copy
  * each. The public joins emit the loop's pairs as rows;
  * `DistanceMatrix.neighbours` and each radius round of [[KnnJoin]] reduce
  * them inside the loop instead, and `Sparcle.clean` reads the merged tally
  * there too.
  *
  * Input contract ("points" frame): it starts with the columns `id: long`,
  * `x: double`, `y: double` (planar meters) and `value: string` (nullable),
  * in that order; each id is non-null and unique, and `x` and `y` are
  * finite. The public joins leave out a row that breaks the contract; the
  * callers that check it throw ([[Tally.check]]).
  * Output columns: `r1, r2, v1, v2, dist` with `r1 != r2` and `dist < d`;
  * both orientations of every pair are emitted, matching the paper's
  * DistanceMatrix (Fig. 3c).
  */
object RangeJoin {

  /** All ordered pairs (r1, r2) with Euclidean distance strictly less than
    * `d`. Null-valued records participate on both sides (the error detector
    * and candidate generator decide how to treat null values).
    */
  def pairs(points: DataFrame, d: Double): DataFrame = emit(points, cells(points, d))

  /** Exact-location self-join: pairs of distinct records at identical
    * coordinates. This is the degenerate "d → 0" join that classic
    * denial-constraint systems (HoloClean et al.) effectively perform when
    * they equi-join on (Latitude, Longitude). Output matches [[pairs]] with
    * `dist` 0.
    */
  def exactPairs(points: DataFrame): DataFrame = emit(points, locations(points))

  /** The columns a points frame starts with. */
  private val Contract = Seq("id" -> LongType, "x" -> DoubleType, "y" -> DoubleType, "value" -> StringType)

  /** The rows of a points frame as Catalyst's internal rows, from the frame's
    * own physical plan (which Spark plans once per frame, so no projection
    * or row decoder is planned per call), read with at most one task per
    * core of the job (`coalesce`, which does nothing on an input with that
    * many partitions or fewer). The frame must start with the contract's
    * columns `id: long, x: double, y: double, value: string`, in that order,
    * which is checked on the driver.
    */
  private[repro] def rows(points: DataFrame): RDD[InternalRow] = {
    val schema = points.schema
    for ((name, t) <- Contract; f <- schema.find(_.name == name))
      require(f.dataType == t, s"points: $name must be a ${t.typeName} column, got ${f.dataType}")
    require(schema.take(Contract.size).map(_.name) == Contract.map(_._1),
            s"points: columns must start with id, x, y, value, got ${schema.fieldNames.mkString(", ")}")
    points.queryExecution.toRdd.coalesce(points.sparkSession.sparkContext.defaultParallelism)
  }

  /** The copies of the range join, grouped by grid cell of side 2d. */
  private[repro] def cells(points: DataFrame, d: Double): Cells = cells(rows(points), d)

  /** The copies of the range join over `rows` (as [[rows]] gives them). */
  private[repro] def cells(rows: RDD[InternalRow], d: Double): Cells = {
    require(d > 0, s"range distance must be positive, got $d")
    val side = 2 * d
    def cell(c: Double): Long = math.floor(c / side).toLong
    group(rows, _ < d) { (id, x, y, code, out) =>
      val hx = cell(x)
      val hy = cell(y)
      val x0 = cell(x - d)
      val y0 = cell(y - d)
      // Counted loops: a cell can be Long.MaxValue.
      val nx = cell(x + d) - x0 + 1
      val ny = cell(y + d) - y0 + 1
      var i = 0L
      while (i < nx) {
        var j = 0L
        while (j < ny) {
          val cx = x0 + i
          val cy = y0 + j
          out.add(cx, cy, id, x, y, code, cx == hx && cy == hy)
          j += 1
        }
        i += 1
      }
    }
  }

  /** The copies of the exact-location join: one per point, keyed by the
    * coordinates' bit patterns (−0.0 folded into 0.0), so a cell is a
    * location.
    */
  private[repro] def locations(points: DataFrame): Cells = {
    def bits(c: Double): Long = java.lang.Double.doubleToLongBits(c + 0.0)
    group(rows(points), _ == 0.0)((id, x, y, code, out) => out.add(bits(x), bits(y), id, x, y, code, probe = true))
  }

  /** The reduce partition, of `reducers`, of cell `(cx, cy)`: MurmurHash3's
    * 64-bit finalizer over the two coordinates, so neighbouring cells spread.
    */
  private[spatialjoin] def partition(cx: Long, cy: Long, reducers: Int): Int = {
    var h = cx * 0x9e3779b97f4a7c15L + cy
    h = (h ^ (h >>> 33)) * 0xff51afd7ed558ccdL
    h = (h ^ (h >>> 33)) * 0xc4ceb9fe1a85ec53L
    java.lang.Math.floorMod(h ^ (h >>> 33), reducers.toLong).toInt
  }

  /** The blocks of each map task: `copies` of each valid row's id,
    * coordinates and value code into the task's [[Buckets]], and the task's
    * tally of its rows ([[Tallier]]), shuffled.
    */
  private def group(rows: RDD[InternalRow], near: Double => Boolean)
                   (copies: (Long, Double, Double, Int, Buckets) => Unit): Cells = {
    val reducers = rows.sparkContext.defaultParallelism
    shuffle(rows.mapPartitionsWithIndex { (part, rs) =>
      val tally = new Tallier(part)
      val out = new Buckets(reducers)
      rs.foreach(r => tally.add(r)((id, x, y, code) => copies(id, x, y, code, out)))
      out.blocks(tally.names, tally.result)
    }, near)
  }

  /** The join's one shuffle: `blocks`, keyed by the reduce partition each
    * goes to, into one partition per core of the job (`defaultParallelism`).
    */
  private[repro] def shuffle(blocks: RDD[(Int, Block)], near: Double => Boolean): Cells = {
    val reducers = blocks.sparkContext.defaultParallelism
    Cells(new ShuffledRDD[Int, Block, Block](blocks, new HashPartitioner(reducers)), near)
  }

  /** Per reduce task of `cells`: `f` of the task's [[Scan]], which gives its
    * probes, in `(cx, cy, id)` order, each with its neighbours in id order,
    * weighed by `weigh(dist)`, and the tally of the join's whole input.
    */
  private[repro] def reduceTasks[A: ClassTag](cells: Cells, weigh: Double => Double)(f: Scan => Iterator[A]): RDD[A] = {
    val near = cells.near
    cells.blocks.mapPartitions(blocks => f(new Scan(blocks.map(_._2), near, weigh)))
  }

  private val pairEncoder = Encoders.product[Pair]

  /** The pair emitter: every pair the loop finds, as a row. */
  private def emit(points: DataFrame, cells: Cells): DataFrame =
    points.sparkSession.createDataset(reduceTasks(cells, _ => 1.0)(_.probes.flatMap(a =>
      Iterator.range(0, a.size).map(i => Pair(a.id, a.nbId(i), a.value, a.nbValue(i), a.dist(i))))))(pairEncoder).toDF()
}
