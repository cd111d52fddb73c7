package repro.spatialjoin

import scala.collection.mutable.ListBuffer
import scala.reflect.ClassTag

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame

/** The searched radius rounds of a kNN self-join: each round's cells
  * ([[RangeJoin.cells]] at its radius) with the ids still open before it
  * (None: every point).
  */
private[repro] final case class KnnRounds(kEff: Int, rounds: Seq[(Cells, Option[Set[Long]])]) {

  /** Per reduce task of every round: `f` of the task's [[Nearest]], which
    * gives the probes the round finalizes, each with its k nearest
    * neighbours in (dist, id) order, weighed by `weigh(dist, dk)`, and the
    * tally of the whole input. This is the union of every round's reduce,
    * which reads the round's shuffle output that its open-id collect left.
    * A probe is finalized in the first round where it has ≥ k neighbours
    * within the radius, and the last round finalizes every probe still
    * open: its radius exceeds the extent, or no probe stays open after it.
    */
  def reduceTasks[A: ClassTag](weigh: (Double, Double) => Double)(f: Nearest => Iterator[A]): RDD[A] = {
    val k = kEff
    val reduced = rounds.zipWithIndex.map { case ((cells, open), i) =>
      val last = i == rounds.size - 1
      RangeJoin.reduceTasks(cells, _ => 1.0)(scan => f(new Nearest(scan, k, open, last, weigh)))
    }
    reduced.head.sparkContext.union(reduced)
  }
}

/** The probes of one reduce task of a kNN radius round that the round
  * finalizes (see [[KnnRounds.reduceTasks]]), each with its k nearest
  * neighbours among its neighbours in `scan`, in (dist, id) order, and
  * `dk`, the last one's distance (0 without any).
  */
private[repro] final class Nearest(scan: Scan, k: Int, open: Option[Set[Long]], last: Boolean,
                                   weigh: (Double, Double) => Double) extends Probes {
  private val order = new Array[Int](scan.maxRun)
  private val tmp = new Array[Int](scan.maxRun)
  private val byDistId: (Int, Int) => Boolean = { (i, j) =>
    val c = java.lang.Double.compare(scan.dist(i), scan.dist(j))
    c < 0 || c == 0 && scan.nbId(i) < scan.nbId(j)
  }
  private var m = 0
  var dk = 0.0

  def tally: Tally = scan.tally

  def names: Array[String] = scan.names

  def next(): Boolean = {
    var found = false
    while (!found && scan.next())
      if (open.forall(_(scan.id)) && (scan.size >= k || last)) {
        var i = 0
        while (i < scan.size) {
          order(i) = i
          i += 1
        }
        IndexSort.sort(order, scan.size, byDistId, tmp)
        m = math.min(k, scan.size)
        dk = if (m == 0) 0.0 else scan.dist(order(m - 1))
        found = true
      }
    found
  }

  def id: Long = scan.id

  def code: Int = scan.code

  def size: Int = m

  def nbId(i: Int): Long = scan.nbId(order(i))

  def nbCode(i: Int): Int = scan.nbCode(order(i))

  def dist(i: Int): Double = scan.dist(order(i))

  def w(i: Int): Double = weigh(dist(i), dk)
}

/** k-nearest-neighbor self-join, built on [[RangeJoin]]'s loop with a
  * growing search radius.
  *
  * The input sets the radii: the caller's pass over the input
  * (`Tally.of`, which also checks the points contract) gives the record
  * count n and the extent diagonal. The last radius lies just
  * above the diagonal, so every pair is inside it and that round is exact
  * and total. The first is
  * the diagonal × √(k/n), which holds about 2πk points of a uniform input;
  * the radius doubles from there, so there are at most ½·log₂(n/k) + 2
  * rounds.
  *
  * Each round is two reducers of the range join's loop over the grid of its
  * radius r, run only for the probes still open, on the round's one shuffle
  * (one `ShuffledRDD`), so the second reads the map output the first left.
  * A probe with ≥ k neighbours within r is finalized, since its true kth-nearest distance is
  * then < r and those neighbours hold its true kNN. One reducer emits the ids
  * still open, which the driver collects; the set is captured in the next
  * round's closures, so every round's plan reads only the input and nothing
  * is persisted. The other, run by the consumer ([[KnnRounds.reduceTasks]]),
  * hands each finalized probe's k nearest and `dk` to the consumer's
  * function ([[Nearest]], a cursor over the round's loop that sorts each
  * finalized probe's neighbours by (dist, id) in a reused index buffer),
  * with the tally of the whole input that each round's shuffle carries:
  * `DistanceMatrix.neighbours` weighs them for its reducers, the
  * DistanceMatrix rows and `Sparcle.clean`'s per-cell kernel.
  *
  * A probe's k nearest are ordered by (dist, id), so ties are broken by id,
  * and `dk` is the distance of its kth — the paper uses dk as the "d" of the
  * weight function for kNN constraints. The relation is asymmetric, as in
  * the paper's example (r7 lists one neighbor yet appears in r5's list).
  */
object KnnJoin {

  /** The radius rounds of `points`' kNN join, whose record count and extent
    * `input` (`Tally.of(points)`) holds: runs one open-id collect per round
    * before the last.
    */
  private[repro] def rounds(points: DataFrame, k: Int, input: Tally): KnnRounds = {
    require(k >= 1, s"k must be >= 1, got $k")

    val rows = RangeJoin.rows(points)
    val n = input.records
    // A point can have at most n-1 neighbors; clamp like real kNN systems do.
    val kEff = math.min(k.toLong, math.max(0L, n - 1)).toInt
    val diag = if (n == 0) 0.0 else math.hypot(input.x1 - input.x0, input.y1 - input.y0)
    // The margin absorbs rounding in the join's distances; a zero extent
    // (all points co-located) takes any positive radius.
    val last = if (diag > 0) diag * (1 + 1e-9) else 1.0
    val first = if (kEff == 0) last else last * math.sqrt(kEff.toDouble / n)
    val radii = Iterator.iterate(first)(_ * 2).takeWhile(_ < last).toSeq :+ last

    val rounds = ListBuffer.empty[(Cells, Option[Set[Long]])]
    var open: Option[Set[Long]] = None // None: every point
    for (r <- radii if open.forall(_.nonEmpty)) {
      val cells = RangeJoin.cells(rows, r)
      val before = open // the closures capture this round's set, not the var
      rounds += cells -> before
      if (r < last) open = Some(RangeJoin.reduceTasks(cells, _ => 1.0)(_.probes.collect {
        case a if before.forall(_(a.id)) && a.size < kEff => a.id
      }).collect().toSet)
    }
    KnnRounds(kEff, rounds.toSeq)
  }
}
