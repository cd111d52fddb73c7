package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** One cell's neighbour-value histogram (§3.3–§5): for a cell with own
  * value [[own]] and its neighbours' values and weights, the summed weight
  * [[nearW]] per non-null value, in the order values first occur, each sum
  * in neighbour order. A non-null own value has an entry (0.0 when no
  * neighbour carries it).
  *
  * The detector needs only "some neighbour value ≠ own value", Phase 1 needs
  * only Σw per (cell, neighbour value), and all three formulators need only
  * that sum and its per-cell total. So Sparcle reduces each cell's
  * neighbours to this histogram as the join finds them, and never
  * materializes the DistanceMatrix itself.
  *
  * Values are int codes into `names` (−1 is null). One histogram is reused
  * for every cell of a reduce task: [[reset]] starts a cell and [[add]] sums
  * a neighbour's weight into arrays indexed by code, so a cell costs no
  * allocation; only the codes it touched are cleared for the next.
  */
final class Histogram private[repro] (names: Array[String]) {
  /** Each code's entry, or −1. */
  private val entry = Array.fill(names.length)(-1)
  private val codes = new Array[Int](names.length)
  private val sums = new Array[Double](names.length)
  private var n = 0
  private var ownCode = -1

  /** Starts the histogram of a cell whose own value has code `own`. */
  private[repro] def reset(own: Int): this.type = {
    var i = 0
    while (i < n) {
      entry(codes(i)) = -1
      i += 1
    }
    n = 0
    ownCode = own
    if (own >= 0) touch(own)
    this
  }

  /** Adds weight `w` of a neighbour whose value has code `c`; a null value
    * (−1) has no entry.
    */
  private[repro] def add(c: Int, w: Double): Unit =
    if (c >= 0) {
      val i = if (entry(c) >= 0) entry(c) else touch(c)
      sums(i) += w
    }

  private def touch(c: Int): Int = {
    entry(c) = n
    codes(n) = c
    sums(n) = 0.0
    n += 1
    n - 1
  }

  def own: String = if (ownCode < 0) null else names(ownCode)

  /** The number of entries. */
  def size: Int = n

  def value(i: Int): String = names(codes(i))

  def nearW(i: Int): Double = sums(i)

  /** Whether entry `i` is the own value's. */
  def isOwn(i: Int): Boolean = codes(i) == ownCode
}

object Histogram {

  /** The histogram of a cell with own value `own` and `neighbours`' values
    * and weights, in neighbour order.
    */
  def apply(own: String, neighbours: IterableOnce[(String, Double)]): Histogram = {
    val nbs = neighbours.iterator.toSeq
    val names = (Option(own).toSeq ++ nbs.map(_._1).filter(_ != null)).distinct.toArray
    val code = names.zipWithIndex.toMap.withDefaultValue(-1)
    val hist = new Histogram(names).reset(code(own))
    nbs.foreach { case (v, w) => hist.add(code(v), w) }
    hist
  }

  /** `SELECT r1 AS id, v1, v2 AS value, SUM(w) AS nearW FROM dm
    * WHERE v2 IS NOT NULL GROUP BY 1, 2, 3` over a DistanceMatrix `dm`.
    */
  def of(dm: DataFrame): DataFrame =
    dm.where(col("v2").isNotNull)
      .groupBy(col("r1").as("id"), col("v1"), col("v2").as("value"))
      .agg(sum("w").as("nearW"))
}
