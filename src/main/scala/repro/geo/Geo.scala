package repro.geo

/** Planar geometry helpers shared by the spatial-join substrate and the
  * synthetic data generators.
  *
  * All cleaning-pipeline computations run on planar coordinates in meters,
  * and the dataset stand-ins are generated in them directly: the paper's
  * distance function F is Euclidean.
  */
object Geo {

  /** Euclidean distance between two planar points (meters). */
  def dist(x1: Double, y1: Double, x2: Double, y2: Double): Double =
    math.hypot(x1 - x2, y1 - y2)
}

/** Axis-aligned planar extent in meters, [x0, x1) × [y0, y1). */
final case class Extent(x0: Double, y0: Double, x1: Double, y1: Double) {
  require(x1 > x0 && y1 > y0, s"degenerate extent $this")

  def width: Double  = x1 - x0
  def height: Double = y1 - y0
  def area: Double   = width * height
  def centerX: Double = (x0 + x1) / 2
  def centerY: Double = (y0 + y1) / 2

  def contains(x: Double, y: Double): Boolean =
    x >= x0 && x < x1 && y >= y0 && y < y1

  /** Deterministic uniform sample of a point in the extent. */
  def sample(rng: scala.util.Random): (Double, Double) =
    (x0 + rng.nextDouble() * width, y0 + rng.nextDouble() * height)
}

/** City extents used by the dataset stand-ins. Sizes approximate the real
  * municipal footprints (the absolute anchor does not matter for cleaning —
  * only the density and the region geometry do).
  */
object CityExtents {
  /** Austin, TX: ~ 25 km × 30 km. */
  val Austin: Extent = Extent(0, 0, 25000, 30000)
  /** Chicago, IL: ~ 25 km × 40 km. */
  val Chicago: Extent = Extent(0, 0, 25000, 40000)
  /** New York City, NY: ~ 45 km × 40 km. */
  val Nyc: Extent = Extent(0, 0, 45000, 40000)
}
