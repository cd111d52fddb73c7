package repro.spatialjoin

import scala.collection.mutable

/** The probes of one reduce task of a join, one at a time, each with its
  * neighbours: a cursor over buffers it reuses, so reading it allocates
  * nothing per tested pair or per neighbour. [[next]] moves it to the next
  * probe, and what it tells of the current probe holds until then.
  *
  * Values are coded as ints: a value's code is its index in [[names]],
  * the sorted values of the join's input, and null is −1.
  */
private[repro] abstract class Probes {

  /** The tally of the join's whole input, merged from the map tasks' tallies. */
  def tally: Tally

  /** The value of each code. */
  def names: Array[String]

  /** Moves to the next probe; false when there is none. */
  def next(): Boolean

  def id: Long

  def code: Int

  /** The current probe's number of neighbours. */
  def size: Int

  def nbId(i: Int): Long

  def nbCode(i: Int): Int

  def dist(i: Int): Double

  /** The weight of neighbour `i`, by the weight rule the cursor was given. */
  def w(i: Int): Double

  final def name(c: Int): String = if (c < 0) null else names(c)

  final def value: String = name(code)

  final def nbValue(i: Int): String = name(nbCode(i))

  /** Each probe in turn, as this cursor moved to it. A consumer reads what
    * it needs of one probe before it asks for the next.
    */
  final def probes: Iterator[this.type] = Iterator.continually[this.type](this).takeWhile(_.next())
}

/** The join loop of one reduce task, over the blocks that the task reads
  * (`blocks`, one from each map task, as the join's shuffle yields them).
  *
  * The blocks' tallies merge into the tally of the whole input. The values
  * are coded by the merged tally's sorted value set, so the codes depend
  * only on the input; each block's own codes are mapped to those by a
  * binary search of its dictionary's values. The blocks' columns are
  * concatenated, each block dropped once it is copied, then ordered by
  * `(cx, cy, id)`, by a sort of an index permutation ([[IndexSort]]), and
  * rebuilt in that order at their exact size, without the cell keys: a run
  * of equal cell is a range of columns. Each probe, in that order, is
  * tested against every copy of its run, the probe's own id excluded, at
  * distance `sqrt(dx * dx + dy * dy)` (the bits of Spark's
  * `sqrt(pow(dx, 2) + pow(dy, 2))`: `StrictMath.pow(v, 2)` is `v * v`);
  * the copies that pass `near` are its neighbours, in id order.
  *
  * @param weigh a neighbour's weight from its distance ([[Probes.w]])
  */
private[repro] final class Scan(blocks: Iterator[Block], near: Double => Boolean,
                                weigh: Double => Double) extends Probes {

  val (tally, names, ids, xs, ys, codes, isProbe, runStart) = Scan.columns(blocks)

  /** The length of the longest run. */
  val maxRun: Int = {
    var m = 0
    var r = 1
    while (r < runStart.length) {
      m = math.max(m, runStart(r) - runStart(r - 1))
      r += 1
    }
    m
  }

  private val hitAt = new Array[Int](maxRun)
  private val hitDist = new Array[Double](maxRun)
  private var hits = 0
  private var run = 0
  private var p = -1

  def next(): Boolean = {
    val n = ids.length
    p = math.min(p + 1, n)
    while (p < n && !isProbe(p)) p += 1
    if (p == n) false
    else {
      while (runStart(run + 1) <= p) run += 1
      val a = ids(p)
      val ax = xs(p)
      val ay = ys(p)
      val end = runStart(run + 1)
      var j = runStart(run)
      var h = 0
      while (j < end) {
        if (ids(j) != a) {
          val dx = ax - xs(j)
          val dy = ay - ys(j)
          val dist = math.sqrt(dx * dx + dy * dy)
          if (near(dist)) {
            hitAt(h) = j
            hitDist(h) = dist
            h += 1
          }
        }
        j += 1
      }
      hits = h
      true
    }
  }

  def id: Long = ids(p)

  def code: Int = codes(p)

  def size: Int = hits

  def nbId(i: Int): Long = ids(hitAt(i))

  def nbCode(i: Int): Int = codes(hitAt(i))

  def dist(i: Int): Double = hitDist(i)

  def w(i: Int): Double = weigh(hitDist(i))
}

private object Scan {

  /** The merged tally, its sorted values, and the columns of `blocks` in
    * `(cx, cy, id)` order at their exact size, with each run's start and the
    * end of the last.
    */
  def columns(blocks: Iterator[Block]) = {
    val bs = blocks.toArray
    val tally = Tally.merge(bs.map(_.tally))
    val names = tally.counts.keys.toArray.sorted
    val n = bs.iterator.map(_.id.length).sum
    val cx, cy, id = new Array[Long](n)
    val x, y = new Array[Double](n)
    val code = new Array[Int](n)
    val probe = new Array[Boolean](n)
    var at = 0
    for (k <- bs.indices) {
      val b = bs(k)
      bs(k) = null
      val m = b.id.length
      System.arraycopy(b.cx, 0, cx, at, m)
      System.arraycopy(b.cy, 0, cy, at, m)
      System.arraycopy(b.id, 0, id, at, m)
      System.arraycopy(b.x, 0, x, at, m)
      System.arraycopy(b.y, 0, y, at, m)
      System.arraycopy(b.probe, 0, probe, at, m)
      val recode = b.names.map(v => java.util.Arrays.binarySearch(names.asInstanceOf[Array[AnyRef]], v))
      assert(recode.forall(_ >= 0), "a block's values are counted by its tally")
      var i = 0
      while (i < m) {
        code(at + i) = if (b.code(i) < 0) -1 else recode(b.code(i))
        i += 1
      }
      at += m
    }
    val order = Array.range(0, n)
    IndexSort.sort(order, n, (i, j) =>
      if (cx(i) != cx(j)) cx(i) < cx(j) else if (cy(i) != cy(j)) cy(i) < cy(j) else id(i) < id(j))
    val runStart = new mutable.ArrayBuilder.ofInt
    val ids = new Array[Long](n)
    val xs, ys = new Array[Double](n)
    val codes = new Array[Int](n)
    val isProbe = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      val j = order(i)
      if (i == 0 || cx(j) != cx(order(i - 1)) || cy(j) != cy(order(i - 1))) runStart.addOne(i)
      ids(i) = id(j)
      xs(i) = x(j)
      ys(i) = y(j)
      codes(i) = code(j)
      isProbe(i) = probe(j)
      i += 1
    }
    runStart.addOne(n)
    (tally, names, ids, xs, ys, codes, isProbe, runStart.result())
  }
}

/** A stable sort of an index permutation by a comparison of the indices,
  * with no boxing: insertion sort of short runs, then a bottom-up merge
  * sort.
  */
private[repro] object IndexSort {

  private val Run = 16

  /** Sorts `a(0 until n)` stably by `lt`; `tmp`, if given, is the merge
    * buffer, of length at least `n`.
    */
  def sort(a: Array[Int], n: Int, lt: (Int, Int) => Boolean, tmp: Array[Int] = null): Unit = {
    var lo = 0
    while (lo < n) {
      val hi = math.min(lo + Run, n)
      var i = lo + 1
      while (i < hi) {
        val v = a(i)
        var j = i - 1
        while (j >= lo && lt(v, a(j))) {
          a(j + 1) = a(j)
          j -= 1
        }
        a(j + 1) = v
        i += 1
      }
      lo = hi
    }
    if (n > Run) {
      var src = a
      var dst = if (tmp != null && tmp.length >= n) tmp else new Array[Int](n)
      var width = Run
      while (width < n) {
        var lo = 0
        while (lo < n) {
          val mid = math.min(lo + width, n)
          val hi = math.min(lo + 2 * width, n)
          var i = lo
          var j = mid
          var k = lo
          while (k < hi) {
            if (j >= hi || i < mid && !lt(src(j), src(i))) {
              dst(k) = src(i)
              i += 1
            } else {
              dst(k) = src(j)
              j += 1
            }
            k += 1
          }
          lo = hi
        }
        val t = src
        src = dst
        dst = t
        width *= 2
      }
      if (src ne a) System.arraycopy(src, 0, a, 0, n)
    }
  }
}
