package repro.cleaning

import org.apache.spark.sql.DataFrame

import repro.core._

/** Non-spatial rule-based cleaning baseline standing in for HoloClean with
  * all signals except denial constraints muted (the paper's comparison
  * configuration, §6).
  *
  * It is exactly the Sparcle pipeline run under the degenerate
  * [[repro.core.ExactLocation]] constraint: co-occurrence only between
  * records at the *same exact coordinates*, every co-occurrence weighing 1 —
  * i.e., classic denial-constraint evaluation via an equality self-join.
  * Consequences, which reproduce Table 1's two regimes:
  *
  *  - errors at duplicated locations are detected (conflicting duplicates)
  *    and repaired from the co-located majority — near-perfect accuracy;
  *  - *wrong values* at new locations co-occur with nothing, violate
  *    nothing, and are silently missed;
  *  - *missing values* at new locations are detected (null rule) but have no
  *    constraint evidence; the statistical repair engine then falls back to
  *    the attribute's global distribution — emulated here by imputing the
  *    modal value, which is what a constraint-only factor graph converges to
  *    without co-occurrence signals. This reproduces HoloClean's ~30% recall
  *    on new-location NYC borough errors (≈ the modal borough's share).
  */
object HoloCleanLike {

  def clean(points: DataFrame, candGen: CandGenParams = CandGenParams()): SparcleResult =
    Sparcle.run(points, SparcleParams(ExactLocation, candGen), _.modal)
}
