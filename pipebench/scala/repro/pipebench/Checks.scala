package repro.pipebench

import org.apache.spark.sql.{Row, SparkSession}

import repro.eval.Tables

/** One collected repair: `id, oldValue (nullable), newValue`. */
final case class Repair(id: Long, oldValue: String, newValue: String)

object Repair {
  def fromRows(rows: Array[Row]): Vector[Repair] =
    rows.iterator.map(r => Repair(r.getLong(0), r.getString(1), r.getString(2)))
      .toVector.sortBy(_.id)
}

/** Output checks. Each returns the problems found; empty means passed. */
object Checks {

  /** Repairs name distinct input records, carry the record's current value
    * as `oldValue`, and change it to a non-null value.
    */
  def repairs(rs: Seq[Repair], input: Map[Long, String]): Seq[String] = {
    val dupIds = rs.groupBy(_.id).collect { case (id, g) if g.size > 1 => id }
    val problems = Seq.newBuilder[String]
    if (dupIds.nonEmpty) problems += s"duplicate repair ids: ${dupIds.take(5).mkString(",")}"
    rs.foreach { r =>
      if (!input.contains(r.id)) problems += s"repair of unknown id ${r.id}"
      else if (input(r.id) != r.oldValue) problems += s"id ${r.id}: oldValue ${r.oldValue} != input ${input(r.id)}"
      if (r.newValue == null) problems += s"id ${r.id}: null newValue"
      else if (r.newValue == r.oldValue) problems += s"id ${r.id}: newValue equals oldValue"
    }
    problems.result().take(10)
  }

  /** Every repaired id was flagged by the detector. */
  def withinDetected(rs: Seq[Repair], flagged: Set[Long]): Seq[String] =
    rs.filterNot(r => flagged(r.id)).take(10).map(r => s"id ${r.id} repaired but not detected")

  /** The paper's worked example reproduces Table 2's golden values, checked
    * as the repo's Table 2 bench checks them.
    */
  def table2Golden()(implicit spark: SparkSession): Seq[String] = {
    val rows = Tables.table2()
    def values(cell: Long) = rows.filter(_.cell == cell).map(_.value).toSet
    val r1 = rows.filter(_.cell == 1L)
    val sumW = r1.map(r => r.value -> r.sumW).toMap
    Seq(
      (rows.map(_.cell).toSet == Set(1L, 2L, 3L, 4L, 5L, 6L)) -> "cells r1..r6 have candidates",
      (r1.nonEmpty && r1.maxBy(_.normProb).value == "Manhattan") -> "r1 favours Manhattan",
      sumW.get("Manhattan").exists(v => math.abs(v - 0.89) < 1e-9) -> "r1 Manhattan sumW 0.89",
      sumW.get("Queens").exists(v => math.abs(v - 0.12) < 1e-9) -> "r1 Queens sumW 0.12",
      sumW.get("S. Island").exists(v => math.abs(v - 0.01) < 1e-9) -> "r1 S. Island sumW 0.01",
      (!values(2L).contains("Queens") && !values(4L).contains("Manhattan") &&
        !values(5L).contains("S. Island")) -> "MinProb removed the marginal candidates",
    ).collect { case (false, what) => s"Table 2 golden: $what" }
  }
}
