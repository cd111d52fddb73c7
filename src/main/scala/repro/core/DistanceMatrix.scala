package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.spatialjoin.{KnnJoin, RangeJoin}

/** The materialized spatial self-join of §3.2.
  *
  * Schema: `(r1: long, r2: long, v1: string, v2: string, dist: double,
  * w: double)` — r2 satisfies the constraint's spatial predicate w.r.t. r1,
  * v1/v2 are their (possibly dirty, possibly null) values of the dependent
  * attribute, `dist` is F(r1, r2) and `w` the distance weight. All later
  * Sparcle modules (detector, candidate generator, formulators) read only
  * each r1's rows of this one table, which is what keeps Sparcle's overhead
  * over its host under ~30% in the paper.
  */
object DistanceMatrix {

  /** Build the DistanceMatrix for `points` (contract: id, x, y, value)
    * under `constraint`.
    */
  def build(points: DataFrame, constraint: SpatialConstraint): DataFrame =
    constraint match {
      case SpatialRange(d, w) =>
        RangeJoin.pairs(points, d).withColumn("w", w.expr(col("dist"), lit(d)))
      case ExactLocation =>
        RangeJoin.exactPairs(points).withColumn("w", lit(1.0))
      case SpatialKnn(k, w) => knn(KnnJoin.pairs(points, k), w)
    }

  /** The DistanceMatrix of kNN pairs (`KnnJoin.pairs`' columns), weighted by
    * `w` with the kth neighbour's distance `dk` as its "d".
    */
  private[repro] def knn(pairs: DataFrame, w: WeightFn): DataFrame =
    // dk = 0 happens only when all k neighbors sit at the exact same
    // location; they are perfect co-occurrences, so weight 1.
    pairs.withColumn("w", when(col("dk") === 0.0, lit(1.0)).otherwise(w.expr(col("dist"), col("dk"))))
      .select("r1", "r2", "v1", "v2", "dist", "w")
}
