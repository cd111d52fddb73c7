package repro.geo

import scala.util.Random

/** Ground-truth planar partition of an extent into named regions.
  *
  * This substitutes the government-issued boundary files the paper uses as
  * ground truth (borough/zipcode/ward/census boundaries). A region map
  * assigns every point to exactly one region label; the cleaning systems
  * never see the map — only record values derived from it, exactly as in the
  * paper ("boundaries are not known to the data cleaning system").
  */
sealed trait RegionMap extends Serializable {
  /** All region labels, in a fixed deterministic order. */
  def labels: IndexedSeq[String]

  /** Label of the region containing (x, y). Total: every in-extent point maps
    * to some label.
    */
  def regionOf(x: Double, y: Double): String

  /** Number of distinct regions. */
  def size: Int = labels.size
}

/** Voronoi partition over `k` uniformly seeded sites: region of a point is
  * the label of its nearest site (ties broken by site index, which is
  * measure-zero for random sites). Mimics the paper's observation that more
  * distinct values mean smaller areas and longer boundaries.
  *
  * @param sites  (x, y, label) per site
  */
final case class VoronoiRegionMap(sites: IndexedSeq[(Double, Double, String)]) extends RegionMap {
  require(sites.nonEmpty, "Voronoi map needs at least one site")

  override val labels: IndexedSeq[String] = sites.map(_._3)

  override def regionOf(x: Double, y: Double): String = {
    var best = 0
    var bestD = Double.MaxValue
    var i = 0
    while (i < sites.length) {
      val s = sites(i)
      val dx = s._1 - x
      val dy = s._2 - y
      val d = dx * dx + dy * dy
      if (d < bestD) { bestD = d; best = i }
      i += 1
    }
    sites(best)._3
  }
}

/** A dominant central disk with label `dominant`, surrounded by a Voronoi
  * partition among `others` outside the disk. Models attributes like Austin's
  * `city`, where ~80% of records carry one value ("Austin") and a handful of
  * suburb values share the rest — the skew Baran's value model exploits.
  */
final case class DominantRegionMap(
    centerX: Double,
    centerY: Double,
    radius: Double,
    dominant: String,
    others: VoronoiRegionMap,
) extends RegionMap {

  override val labels: IndexedSeq[String] = dominant +: others.labels

  override def regionOf(x: Double, y: Double): String =
    if (Geo.dist(x, y, centerX, centerY) <= radius) dominant
    else others.regionOf(x, y)
}

object RegionMap {

  /** Voronoi map with `k` sites sampled uniformly in `extent`, labels
    * `prefix-000` … `prefix-(k-1)`. Deterministic in `seed`.
    */
  def voronoi(extent: Extent, k: Int, prefix: String, seed: Long): VoronoiRegionMap = {
    require(k >= 1, s"need at least one region, got $k")
    val rng = new Random(seed)
    val sites = (0 until k).map { i =>
      val (x, y) = extent.sample(rng)
      (x, y, f"$prefix-$i%03d")
    }
    VoronoiRegionMap(sites)
  }

  /** Voronoi map with explicit labels (e.g., the five NYC boroughs).
    * `labels.size` sites are sampled uniformly. Deterministic in `seed`.
    */
  def voronoiLabeled(extent: Extent, labels: Seq[String], seed: Long): VoronoiRegionMap = {
    require(labels.nonEmpty, "need at least one label")
    require(labels.distinct.size == labels.size, "labels must be distinct")
    val rng = new Random(seed)
    val sites = labels.toIndexedSeq.map { l =>
      val (x, y) = extent.sample(rng)
      (x, y, l)
    }
    VoronoiRegionMap(sites)
  }

  /** Dominant-disk map: the disk is centered in the extent and sized to cover
    * roughly `dominantShare` of the extent area (clipped to the extent);
    * `k - 1` other labels partition the remainder.
    */
  def dominant(extent: Extent, k: Int, dominantLabel: String, otherPrefix: String,
               dominantShare: Double, seed: Long): DominantRegionMap = {
    require(k >= 2, "dominant map needs the dominant label plus at least one other")
    require(dominantShare > 0 && dominantShare < 1, s"share must be in (0,1): $dominantShare")
    val radius = math.sqrt(dominantShare * extent.area / math.Pi)
    val others = voronoi(extent, k - 1, otherPrefix, seed)
    DominantRegionMap(extent.centerX, extent.centerY, radius, dominantLabel, others)
  }
}
