package repro.spatialjoin

import scala.collection.mutable.ListBuffer

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

/** k-nearest-neighbor self-join, built on [[RangeJoin]] with a growing
  * search radius.
  *
  * The input sets the radii. One aggregate job reads the record count n and
  * the extent diagonal. The last radius lies just above the diagonal, so
  * every pair is inside it and that round is exact and total. The first is
  * the diagonal × √(k/n), which holds about 2πk points of a uniform input;
  * the radius doubles from there, so there are at most ½·log₂(n/k) + 2
  * rounds.
  *
  * Each round range-joins the probes still open against all points; a probe
  * with ≥ k candidates within radius r is finalized, since its true
  * kth-nearest distance is then < r and the candidates hold its true kNN.
  * The driver collects the ids still open, and the next round's probes are
  * the input filtered by them: every round's plan reads only the input, and
  * nothing is persisted.
  *
  * Output columns: `r1, r2, v1, v2, dist, dk` where r2 ranges over the k
  * nearest neighbors of r1 (ties broken by (dist, r2) for determinism) and
  * `dk` is the distance of r1's kth neighbor — the paper uses dk as the "d"
  * of the weight function for kNN constraints. The relation is asymmetric,
  * as in the paper's example (r7 lists one neighbor yet appears in r5's list).
  */
object KnnJoin {

  def pairs(points: DataFrame, k: Int): DataFrame = {
    require(k >= 1, s"k must be >= 1, got $k")

    val extent = points.agg(count(lit(1)),
      coalesce(hypot(max("x") - min("x"), max("y") - min("y")), lit(0.0))).head()
    val n = extent.getLong(0)
    // A point can have at most n-1 neighbors; clamp like real kNN systems do.
    val kEff = math.min(k.toLong, math.max(0L, n - 1)).toInt
    val diag = extent.getDouble(1)
    // The margin absorbs rounding in the join's distances; a zero extent
    // (all points co-located) takes any positive radius.
    val last = if (diag > 0) diag * (1 + 1e-9) else 1.0
    val first = if (kEff == 0) last else last * math.sqrt(kEff.toDouble / n)
    val radii = Iterator.iterate(first)(_ * 2).takeWhile(_ < last).toSeq :+ last

    // Each round's candidates, restricted to the probes it finalizes.
    val finalized = ListBuffer.empty[DataFrame]
    var open: Option[Set[Long]] = None // None: every point
    for (r <- radii if open.forall(_.nonEmpty)) {
      val probes = open.fold(points)(ids => points.where(col("id").isInCollection(ids)))
      val cand = RangeJoin.pairsAsym(probes, points, r)
      val done = cand.groupBy(col("r1").as("id")).count().where(col("count") >= kEff)
      val stillOpen =
        if (r == last) Set.empty[Long]
        else probes.select("id").join(done, Seq("id"), "left_anti").collect().map(_.getLong(0)).toSet
      finalized += cand.where(!col("r1").isInCollection(stillOpen))
      open = Some(stillOpen)
    }

    val byDist = Window.partitionBy("r1").orderBy(col("dist"), col("r2"))
    finalized.reduce(_ unionByName _)
      .withColumn("rank", row_number().over(byDist))
      .where(col("rank") <= kEff)
      .withColumn("dk", max(col("dist")).over(Window.partitionBy("r1")))
      .select("r1", "r2", "v1", "v2", "dist", "dk")
  }
}
