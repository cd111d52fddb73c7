package repro.spatialjoin

import scala.reflect.ClassTag

import org.apache.spark.rdd.{RDD, ShuffledRDD}
import org.apache.spark.sql.{DataFrame, Encoders}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.types.{DoubleType, LongType, StringType}

/** A pair of the join: `r2` lies within the distance of probe `r1`. */
final case class Pair(r1: Long, r2: Long, v1: String, v2: String, dist: Double)

/** A join's copies, shuffled by grid cell `(cx, cy)` with the map tasks'
  * tallies (keyed by the reduce partition each goes to), and its distance
  * test.
  */
final case class Cells(copies: ShuffledRDD[Any, JoinRecord, JoinRecord], near: Double => Boolean)

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
  * contract and count its value ([[Tallier]]), and make the copies of each
  * valid row; a row that breaks the contract gets none. The
  * [[CopySerializer]] writes each copy as a fixed-layout record
  * `(cx, cy, id, x, y, value, probe)`, and the [[CellPartitioner]] sends it
  * to its cell's partition, one partition per core of the job. At the end of
  * its partition, each map task sends its [[Tally]] to every reduce
  * partition: P² tallies per join (P = `defaultParallelism`), each holding
  * at most the distinct values of one map partition. Each reduce task is
  * one [[Scan]]: it merges the tallies it reads into the tally of the whole
  * input, stores the copies in primitive columns with int-coded values,
  * orders them by `(cx, cy, id)` and runs one loop that pairs each probe
  * with the copies of its cell within exact Euclidean distance `d`. The
  * reduce side does not spill: a task holds its whole partition, 29 bytes
  * per copy (id, x, y, value code and probe flag) and 4 per cell once the
  * columns are ordered, and about 56 bytes per copy (plus 4 per cell) at
  * its peak while it orders them. The public joins emit the loop's pairs as rows;
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
    group(rows, _ < d) { (id, x, y, value) =>
      val hx = cell(x)
      val hy = cell(y)
      val x0 = cell(x - d)
      val y0 = cell(y - d)
      // Counted loops: a cell can be Long.MaxValue.
      val nx = cell(x + d) - x0 + 1
      val ny = cell(y + d) - y0 + 1
      val copies = new Array[((Long, Long), Copy)]((nx * ny).toInt)
      var i = 0L
      while (i < nx) {
        var j = 0L
        while (j < ny) {
          val cx = x0 + i
          val cy = y0 + j
          copies((i * ny + j).toInt) = (cx, cy) -> Copy(id, x, y, value, cx == hx && cy == hy)
          j += 1
        }
        i += 1
      }
      copies
    }
  }

  /** The copies of the exact-location join: one per point, keyed by the
    * coordinates' bit patterns (−0.0 folded into 0.0), so a cell is a
    * location.
    */
  private[repro] def locations(points: DataFrame): Cells = {
    def bits(c: Double): Long = java.lang.Double.doubleToLongBits(c + 0.0)
    group(rows(points), _ == 0.0)((id, x, y, value) => Some((bits(x), bits(y)) -> Copy(id, x, y, value, probe = true)))
  }

  /** The copies of each valid row's `id, x, y, value`, by `copies`, and each
    * map task's tally of its rows ([[Tallier]]), sent to every reduce
    * partition after its copies, shuffled.
    */
  private def group(rows: RDD[InternalRow], near: Double => Boolean)
                   (copies: (Long, Double, Double, String) => IterableOnce[((Long, Long), Copy)]): Cells = {
    val reducers = rows.sparkContext.defaultParallelism
    shuffle(rows.mapPartitionsWithIndex { (part, rs) =>
      val tally = new Tallier(part)
      rs.flatMap(r => tally.add(r)(copies)) ++ {
        val t = tally.result
        Iterator.tabulate(reducers)(to => (to, t))
      }
    }, near)
  }

  /** The join's one shuffle: `records`, copies keyed by cell and tallies by
    * the reduce partition they go to, into one partition per core of the
    * job (`defaultParallelism`).
    */
  private[repro] def shuffle(records: RDD[_ <: Product2[Any, JoinRecord]], near: Double => Boolean): Cells = {
    val partitioner = new CellPartitioner(records.sparkContext.defaultParallelism)
    Cells(new ShuffledRDD[Any, JoinRecord, JoinRecord](records, partitioner).setSerializer(CopySerializer), near)
  }

  /** Per reduce task of `cells`: `f` of the task's [[Scan]], which gives its
    * probes, in `(cx, cy, id)` order, each with its neighbours in id order,
    * weighed by `weigh(dist)`, and the tally of the join's whole input.
    */
  private[repro] def reduceTasks[A: ClassTag](cells: Cells, weigh: Double => Double)(f: Scan => Iterator[A]): RDD[A] = {
    val near = cells.near
    cells.copies.mapPartitions(records => f(new Scan(records, near, weigh)))
  }

  private val pairEncoder = Encoders.product[Pair]

  /** The pair emitter: every pair the loop finds, as a row. */
  private def emit(points: DataFrame, cells: Cells): DataFrame =
    points.sparkSession.createDataset(reduceTasks(cells, _ => 1.0)(_.probes.flatMap(a =>
      Iterator.range(0, a.size).map(i => Pair(a.id, a.nbId(i), a.value, a.nbValue(i), a.dist(i))))))(pairEncoder).toDF()
}
