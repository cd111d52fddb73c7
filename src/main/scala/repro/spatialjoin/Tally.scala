package repro.spatialjoin

import scala.collection.mutable

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow

/** A tally of points rows: the `records` that meet the points contract, their
  * extent (`x0` to `x1`, `y0` to `y1`; infinite bounds when there are none)
  * and the count of each non-null value among them, and the first row that
  * breaks the contract (null if none). A map task's tally covers input
  * partition `part`; a merged tally has `part` 0.
  */
final case class Tally(part: Int, records: Long, x0: Double, x1: Double, y0: Double, y1: Double,
                       counts: Map[String, Long], bad: String)

object Tally {

  /** The tally of all the rows of `tallies`: the first bad row is that of the
    * lowest input partition, whatever the order of `tallies`.
    */
  def merge(tallies: Iterable[Tally]): Tally = {
    val t = new Tallier(0)
    tallies.foreach(t ++= _)
    t.result
  }

  /** The tally of `points`' rows (`RangeJoin.rows`), counted per partition and
    * merged on the driver: one job, no shuffle, at most one task per core.
    * Each task also returns the ids of its valid records, sorted, so the
    * driver can [[check]] the points contract, which it does before
    * returning.
    */
  def of(points: DataFrame): Tally = {
    val parts = RangeJoin.rows(points).mapPartitionsWithIndex { (part, rows) =>
      val t = new Tallier(part)
      val ids = new mutable.ArrayBuilder.ofLong
      rows.foreach(r => t.add(r)((id, _, _, _) => ids.addOne(id)))
      val sorted = ids.result()
      java.util.Arrays.sort(sorted)
      Iterator((t.result, sorted))
    }.collect()
    val tally = merge(parts.map(_._1))
    check(tally.bad, parts.map(_._2))
    tally
  }

  /** Throws the points contract's error, if there is one: `bad`, the first
    * row that breaks the contract, else the smallest id that the valid
    * records' ids, in sorted runs `ids`, hold twice. The join tells a
    * record's pair with itself from its neighbours by id.
    */
  private[repro] def check(bad: String, ids: Iterable[Array[Long]]): Unit = {
    def duplicate = {
      val all = Array.concat(ids.toSeq: _*)
      java.util.Arrays.sort(all) // merges the sorted runs
      all.indices.drop(1).find(i => all(i) == all(i - 1)).map(i => s"duplicate id ${all(i)}")
    }
    Option(bad).orElse(duplicate).foreach(b => throw new IllegalArgumentException(s"points: $b"))
  }
}

/** Tallies the rows of input partition `part`, or the tallies of other rows,
  * into one [[Tally]]. Its [[add]] is the points contract's one per-row check:
  * a non-null `id` and finite `x` and `y`. It codes the values it counts by
  * the order it meets them in: a value's code is its index in [[names]].
  */
private[repro] final class Tallier(part: Int) {
  private var records = 0L
  private var x0 = Double.PositiveInfinity
  private var x1 = Double.NegativeInfinity
  private var y0 = Double.PositiveInfinity
  private var y1 = Double.NegativeInfinity
  /** Each value's code and count, in code order. */
  private val counts = mutable.LinkedHashMap.empty[String, Tallier.Count]
  private var bad: String = null
  private var badPart = Int.MaxValue

  /** If row `r` (`id, x, y, value`) meets the points contract, counts it and
    * calls `f` with its id, coordinates and value code (−1: null);
    * otherwise notes it, if it is the first bad row.
    */
  def add(r: InternalRow)(f: (Long, Double, Double, Int) => Unit): Unit = {
    def finite(i: Int) = !r.isNullAt(i) && r.getDouble(i).isFinite
    def show(i: Int) = if (r.isNullAt(i)) "null" else r.getDouble(i).toString
    if (r.isNullAt(0)) note(part, s"null id (x=${show(1)}, y=${show(2)})")
    else if (!finite(1) || !finite(2)) note(part, s"id ${r.getLong(0)}: non-finite coordinates (${show(1)}, ${show(2)})")
    else {
      val x = r.getDouble(1)
      val y = r.getDouble(2)
      records += 1
      x0 = math.min(x0, x)
      x1 = math.max(x1, x)
      y0 = math.min(y0, y)
      y1 = math.max(y1, y)
      f(r.getLong(0), x, y, if (r.isNullAt(3)) -1 else count(r.getUTF8String(3).toString, 1))
    }
  }

  /** Adds `n` to the count of `value`, and gives its code. */
  private def count(value: String, n: Long): Int = {
    val c = counts.getOrElseUpdate(value, new Tallier.Count(counts.size))
    c.n += n
    c.code
  }

  /** Adds the rows of tally `t`. */
  def ++=(t: Tally): this.type = {
    records += t.records
    x0 = math.min(x0, t.x0)
    x1 = math.max(x1, t.x1)
    y0 = math.min(y0, t.y0)
    y1 = math.max(y1, t.y1)
    t.counts.foreach { case (v, n) => count(v, n) }
    if (t.bad != null) note(t.part, t.bad)
    this
  }

  /** Keeps `msg` if no bad row of partition `p` or below is noted yet. */
  private def note(p: Int, msg: String): Unit =
    if (p < badPart) {
      bad = msg
      badPart = p
    }

  /** The values counted so far, by code. */
  def names: Array[String] = counts.keysIterator.toArray

  def result: Tally = Tally(part, records, x0, x1, y0, y1, counts.iterator.map { case (v, c) => v -> c.n }.toMap, bad)
}

private object Tallier {
  final class Count(val code: Int) {
    var n = 0L
  }
}
