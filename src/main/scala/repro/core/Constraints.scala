package repro.core

/** Distance-weighting function W of the paper's spatial denial constraints:
  * an arbitrary decreasing map from distance ∈ [0, d) to weight ∈ (0, 1].
  */
sealed trait WeightFn extends Serializable {
  /** W of a neighbour at distance `dist`, for the constraint's distance `d`. */
  def weight(dist: Double, d: Double): Double
}

/** The paper's experimental family: W(r1, r2) = (1 − F(r1,r2)/d)^n.
  * `n = 0` cancels distance weighting (every in-range pair weighs 1) and is
  * the paper's ablation ("Sparcle n=0"); larger n favors closer records.
  */
final case class PowerWeight(n: Double) extends WeightFn {
  require(n >= 0, s"exponent must be non-negative, got $n")

  override def weight(dist: Double, d: Double): Double =
    StrictMath.pow(math.max(0.0, 1.0 - dist / d), n)
}

/** A spatial denial constraint ¬(SpatialPredicate(r1, r2) ∧ r1.A ≠ r2.A)
  * (§3.1). The dependent attribute A is supplied separately (per-pipeline);
  * the constraint captures the spatial predicate and its weighting, which
  * `DistanceMatrix.neighbours` applies.
  */
sealed trait SpatialConstraint extends Serializable

/** SpatialRange(..., d, F, W): records within Euclidean distance `d` (meters,
  * strict) are expected to share the dependent attribute, weighted by W.
  */
final case class SpatialRange(d: Double, weight: WeightFn = PowerWeight(2))
    extends SpatialConstraint {
  require(d > 0, s"range must be positive, got $d")
}

/** SpatialkNN(..., k, F, W): each record's k nearest neighbors are expected
  * to share the dependent attribute; the weight function's "d" is the
  * distance of the kth neighbor (per §6 of the paper). The kNN join derives
  * its search radii from the input's extent, so the neighbors are exact at
  * any extent.
  */
final case class SpatialKnn(k: Int, weight: WeightFn = PowerWeight(2))
    extends SpatialConstraint {
  require(k >= 1, s"k must be >= 1, got $k")
}

/** Degenerate non-spatial constraint: co-occurrence only at the exact same
  * coordinates, weight 1. This is what classic denial-constraint cleaners
  * (HoloClean etc.) evaluate when they equi-join on (Latitude, Longitude);
  * it drives the `HoloCleanLike` baseline and the paper's "d = 0" endpoint.
  */
case object ExactLocation extends SpatialConstraint
