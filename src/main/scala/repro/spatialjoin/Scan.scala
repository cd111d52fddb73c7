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

/** The join loop of one reduce task, over the copies and tallies that the
  * task reads (`records`, as the join's shuffle yields them).
  *
  * The copies' fields go into primitive columns as they are read; each
  * `Copy` is dropped once they are stored. The values are coded by the
  * sorted value set of the merged tally (with any value the copies carry
  * that the tallies do not, which the join's own map tasks never send), so
  * the codes depend only on the input. The copies are then ordered by
  * `(cx, cy, id)`, by a sort of an index permutation ([[IndexSort]]), and
  * the columns rebuilt in that order at their exact size, without the cell
  * keys: a run of equal cell is a range of columns. Each probe, in that
  * order, is tested against every copy of its run, the probe's own id
  * excluded, at distance `sqrt(dx * dx + dy * dy)` (the bits of Spark's
  * `sqrt(pow(dx, 2) + pow(dy, 2))`: `StrictMath.pow(v, 2)` is `v * v`);
  * the copies that pass `near` are its neighbours, in id order.
  *
  * @param weigh a neighbour's weight from its distance ([[Probes.w]])
  */
private[repro] final class Scan(records: Iterator[(Any, JoinRecord)], near: Double => Boolean,
                                weigh: Double => Double) extends Probes {

  val (tally, names, ids, xs, ys, codes, isProbe, runStart) = Scan.columns(records)

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

  /** Copies per chunk of [[Read]]: a copy `i` is at `i >>> Shift`, offset `i & (Chunk - 1)`. */
  private val Shift = 12
  private val Chunk = 1 << Shift

  /** The copies' fields, as the shuffle yields them, in chunks of [[Chunk]]
    * copies, so that reading writes each slot once and copies no grown
    * array; the values numbered in the order they are met (`seen`); and the
    * merged tally. Each later step reads the chunks where they are, and the
    * steps that build the ordered columns drop each field group's chunks
    * once they have read them. Each step is its own small method, so the
    * JIT compiles it.
    */
  private final class Read {
    var n = 0
    private var keys = mutable.ArrayBuffer.empty[Array[Long]] // cx, cy, id
    private var xys = mutable.ArrayBuffer.empty[Array[Long]] // x and y as raw bits
    private var vps = mutable.ArrayBuffer.empty[Array[Int]] // the value's number in `seen` (−1: null) × 2, + 1 for a probe
    private var key, xy: Array[Long] = null
    private var vp: Array[Int] = null
    val seen = mutable.ArrayBuffer.empty[String]
    /** A value's number, by the string instance: the deserializer shares
      * one instance per value and map output, so `seen` may list a value a
      * few times, each with its own number.
      */
    private val number = new java.util.IdentityHashMap[String, Integer]
    val tallier = new Tallier(0)

    def add(cell: (Long, Long), c: Copy): Unit = {
      val i = n & (Chunk - 1)
      if (i == 0) {
        key = new Array[Long](3 * Chunk)
        xy = new Array[Long](2 * Chunk)
        vp = new Array[Int](Chunk)
        keys += key
        xys += xy
        vps += vp
      }
      key(3 * i) = cell._1
      key(3 * i + 1) = cell._2
      key(3 * i + 2) = c.id
      xy(2 * i) = java.lang.Double.doubleToRawLongBits(c.x)
      xy(2 * i + 1) = java.lang.Double.doubleToRawLongBits(c.y)
      vp(i) = (if (c.value == null) -1 else numbered(c.value)) * 2 + (if (c.probe) 1 else 0)
      n += 1
    }

    private def numbered(v: String): Int = {
      val known = number.get(v)
      if (known != null) known.intValue
      else {
        number.put(v, seen.size)
        seen += v
        seen.size - 1
      }
    }

    /** The copies' indices in `(cx, cy, id)` order. */
    def order(): Array[Int] = {
      key = null
      xy = null
      vp = null
      val k = keys.toArray
      val order = Array.range(0, n)
      IndexSort.sort(order, n, { (i, j) =>
        val ki = k(i >>> Shift)
        val kj = k(j >>> Shift)
        val a = 3 * (i & (Chunk - 1))
        val b = 3 * (j & (Chunk - 1))
        if (ki(a) != kj(b)) ki(a) < kj(b)
        else if (ki(a + 1) != kj(b + 1)) ki(a + 1) < kj(b + 1)
        else ki(a + 2) < kj(b + 2)
      })
      order
    }

    /** The start of each run of equal `(cx, cy)` in `order`, and its end. */
    def starts(order: Array[Int]): Array[Int] = {
      val k = keys.toArray
      def newRun(i: Int): Boolean = i == 0 || {
        val ka = k(order(i) >>> Shift)
        val kb = k(order(i - 1) >>> Shift)
        val a = 3 * (order(i) & (Chunk - 1))
        val b = 3 * (order(i - 1) & (Chunk - 1))
        ka(a) != kb(b) || ka(a + 1) != kb(b + 1)
      }
      var runs = 0
      var i = 0
      while (i < n) {
        if (newRun(i)) runs += 1
        i += 1
      }
      val starts = new Array[Int](runs + 1)
      runs = 0
      i = 0
      while (i < n) {
        if (newRun(i)) {
          starts(runs) = i
          runs += 1
        }
        i += 1
      }
      starts(runs) = n
      starts
    }

    /** The ids in `order`; drops the keys. */
    def ids(order: Array[Int]): Array[Long] = {
      val k = keys.toArray
      keys = null
      val ids = new Array[Long](n)
      var i = 0
      while (i < n) {
        val j = order(i)
        ids(i) = k(j >>> Shift)(3 * (j & (Chunk - 1)) + 2)
        i += 1
      }
      ids
    }

    /** The x and y columns in `order`; drops the coordinates' chunks. */
    def coordinates(order: Array[Int]): (Array[Double], Array[Double]) = {
      val c = xys.toArray
      xys = null
      val xs, ys = new Array[Double](n)
      var i = 0
      while (i < n) {
        val j = order(i)
        val at = 2 * (j & (Chunk - 1))
        xs(i) = java.lang.Double.longBitsToDouble(c(j >>> Shift)(at))
        ys(i) = java.lang.Double.longBitsToDouble(c(j >>> Shift)(at + 1))
        i += 1
      }
      (xs, ys)
    }

    /** The value codes, by the code of each number in `seen`, and the probe
      * flags, in `order`; drops the chunks of both.
      */
    def codesAndProbes(order: Array[Int], code: Array[Int]): (Array[Int], Array[Boolean]) = {
      val c = vps.toArray
      vps = null
      val codes = new Array[Int](n)
      val isProbe = new Array[Boolean](n)
      var i = 0
      while (i < n) {
        val j = order(i)
        val f = c(j >>> Shift)(j & (Chunk - 1))
        val v = f >> 1
        codes(i) = if (v < 0) -1 else code(v)
        isProbe(i) = (f & 1) == 1
        i += 1
      }
      (codes, isProbe)
    }
  }

  /** The tally, the sorted values, and the columns in `(cx, cy, id)` order at
    * their exact size, with each run's start and the end of the last. The
    * steps run in the order that keeps the fewest bytes alive at once: the
    * keys are dropped before the coordinates are reordered, and those
    * before the values are.
    */
  def columns(records: Iterator[(Any, JoinRecord)]) = {
    val r = new Read
    records.foreach {
      case (cell, c: Copy) => r.add(cell.asInstanceOf[(Long, Long)], c)
      case (_, t: Tally)   => r.tallier ++= t
    }
    val tally = r.tallier.result
    val names = (tally.counts.keysIterator ++ r.seen).toArray.distinct.sorted
    val code = r.seen.map(v => java.util.Arrays.binarySearch(names.asInstanceOf[Array[AnyRef]], v)).toArray
    val order = r.order()
    val runStart = r.starts(order)
    val ids = r.ids(order)
    val (xs, ys) = r.coordinates(order)
    val (codes, isProbe) = r.codesAndProbes(order, code)
    (tally, names, ids, xs, ys, codes, isProbe, runStart)
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
