package repro.core

import scala.reflect.ClassTag

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Encoders}

import repro.spatialjoin.{Cells, KnnJoin, Probes, RangeJoin, Tally}

/** A constraint's neighbour relation, not materialized. */
trait Neighbours {

  /** Per reduce task of the join: `f` of the task's records ([[Probes]], a
    * cursor that gives each record with its neighbours' ids, value codes,
    * distances F and weights W, inside the join's loop) and the tally of the
    * whole input, merged in the task.
    */
  def reduceTasks[A: ClassTag](f: Probes => Iterator[A]): RDD[A]
}

/** The spatial self-join of §3.2: each r1 with every r2 that satisfies the
  * constraint's spatial predicate w.r.t. it, the distance F and the weight
  * W. All later Sparcle modules read only each r1's rows of this one
  * relation, which is what keeps Sparcle's overhead over its host under
  * ~30% in the paper; so they reduce them inside the join's loop
  * ([[neighbours]]), and [[build]] materializes them as a debug and oracle view.
  */
object DistanceMatrix {

  /** The DistanceMatrix for `points` (contract: id, x, y, value) under
    * `constraint`: `r1, r2, v1, v2, dist, w`, where v1/v2 are the (possibly
    * dirty, possibly null) values of the dependent attribute. The points
    * contract is checked first, as `clean` checks it ([[ValueStats.of]]).
    */
  def build(points: DataFrame, constraint: SpatialConstraint): DataFrame = {
    ValueStats.of(points)
    of(points, neighbours(points, constraint))
  }

  private val rowEncoder = Encoders.product[(Long, Long, String, String, Double, Double)]

  /** The rows of `neighbours`, the relation of `points`. */
  private[repro] def of(points: DataFrame, neighbours: Neighbours): DataFrame =
    points.sparkSession.createDataset(neighbours.reduceTasks(_.probes.flatMap(a =>
      Iterator.range(0, a.size).map(i => (a.id, a.nbId(i), a.value, a.nbValue(i), a.dist(i), a.w(i))))))(rowEncoder)
      .toDF("r1", "r2", "v1", "v2", "dist", "w")

  /** The neighbour relation of `points` under `constraint`: the range join
    * weighed W(dist, d), the exact-location join weighed 1, or the kNN
    * radius rounds weighed W(dist, dk). A kNN relation searches here (the
    * input's tally, which checks the points contract, and the open-id
    * collects), once for all its reducers.
    */
  def neighbours(points: DataFrame, constraint: SpatialConstraint): Neighbours = constraint match {
    case SpatialRange(d, w) => weighed(RangeJoin.cells(points, d))(w.weight(_, d))
    case ExactLocation      => weighed(RangeJoin.locations(points))(_ => 1.0)
    case SpatialKnn(k, w) =>
      val rounds = KnnJoin.rounds(points, k, Tally.of(points))
      new Neighbours {
        def reduceTasks[A: ClassTag](f: Probes => Iterator[A]): RDD[A] = {
          val weight = w // the closure must not capture this wrapper
          // dk = 0 happens only when all k neighbours sit at the exact same
          // location; they are perfect co-occurrences, so weight 1.
          rounds.reduceTasks((dist, dk) => if (dk == 0) 1.0 else weight.weight(dist, dk))(f)
        }
      }
  }

  /** The neighbours of the join over `cells`, each weighed by `weigh(dist)`. */
  private def weighed(cells: Cells)(weigh: Double => Double): Neighbours = new Neighbours {
    def reduceTasks[A: ClassTag](f: Probes => Iterator[A]): RDD[A] = RangeJoin.reduceTasks(cells, weigh)(f)
  }
}
