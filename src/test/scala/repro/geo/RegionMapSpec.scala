package repro.geo

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropHelpers

class RegionMapSpec extends AnyFunSuite with PropHelpers {

  private val extent = Extent(0, 0, 10000, 10000)

  test("voronoi has exactly k distinct labels") {
    val m = RegionMap.voronoi(extent, 23, "r", seed = 1)
    assert(m.size == 23)
    assert(m.labels.distinct.size == 23)
  }

  test("voronoi labels are zero-padded and prefixed") {
    val m = RegionMap.voronoi(extent, 3, "zip", seed = 1)
    assert(m.labels == IndexedSeq("zip-000", "zip-001", "zip-002"))
  }

  test("voronoi is deterministic in the seed") {
    val a = RegionMap.voronoi(extent, 10, "r", seed = 5)
    val b = RegionMap.voronoi(extent, 10, "r", seed = 5)
    assert(a.sites == b.sites)
    val c = RegionMap.voronoi(extent, 10, "r", seed = 6)
    assert(a.sites != c.sites)
  }

  test("regionOf is total: every in-extent point gets a known label") {
    val m = RegionMap.voronoi(extent, 17, "r", seed = 2)
    forAllSeeded(Gen.zip(Gen.chooseNum(0.0, 9999.9), Gen.chooseNum(0.0, 9999.9))) {
      case (x, y) => assert(m.labels.contains(m.regionOf(x, y)))
    }
  }

  test("regionOf assigns each site to its own label") {
    val m = RegionMap.voronoi(extent, 12, "r", seed = 3)
    m.sites.foreach { case (x, y, l) => assert(m.regionOf(x, y) == l) }
  }

  test("regionOf returns the nearest site's label (brute force check)") {
    val m = RegionMap.voronoi(extent, 31, "r", seed = 4)
    forAllSeeded(Gen.zip(Gen.chooseNum(0.0, 10000.0), Gen.chooseNum(0.0, 10000.0))) {
      case (x, y) =>
        val byDist = m.sites.minBy { case (sx, sy, _) => Geo.dist(x, y, sx, sy) }
        assert(m.regionOf(x, y) == byDist._3)
    }
  }

  test("voronoiLabeled uses exactly the provided labels") {
    val labels = Seq("Manhattan", "Brooklyn", "Queens", "Bronx", "Staten Island")
    val m = RegionMap.voronoiLabeled(extent, labels, seed = 7)
    assert(m.labels == labels.toIndexedSeq)
  }

  test("voronoiLabeled rejects duplicate labels") {
    intercept[IllegalArgumentException](
      RegionMap.voronoiLabeled(extent, Seq("a", "b", "a"), seed = 1))
  }

  test("all regions of a moderate voronoi are non-empty under dense sampling") {
    val m = RegionMap.voronoi(extent, 10, "r", seed = 8)
    val rng = new scala.util.Random(0)
    val seen = (1 to 20000).map { _ =>
      val (x, y) = extent.sample(rng); m.regionOf(x, y)
    }.toSet
    assert(seen == m.labels.toSet)
  }

  test("dominant map covers roughly the requested share") {
    val m = RegionMap.dominant(extent, 9, "Austin", "sub", dominantShare = 0.5, seed = 9)
    val rng = new scala.util.Random(1)
    val n = 20000
    val inDom = (1 to n).count { _ =>
      val (x, y) = extent.sample(rng); m.regionOf(x, y) == "Austin"
    }
    val share = inDom.toDouble / n
    assert(share > 0.45 && share < 0.55, s"share=$share")
  }

  test("dominant map exposes k labels with the dominant first") {
    val m = RegionMap.dominant(extent, 9, "Austin", "sub", dominantShare = 0.78, seed = 10)
    assert(m.size == 9)
    assert(m.labels.head == "Austin")
    assert(m.labels.tail.forall(_.startsWith("sub-")))
  }

  test("dominant map labels non-dominant points with suburb regions") {
    val m = RegionMap.dominant(extent, 5, "core", "sub", dominantShare = 0.1, seed = 11)
    // Far corner is well outside the central 10%-area disk.
    assert(m.regionOf(10, 10).startsWith("sub-"))
    assert(m.regionOf(extent.centerX, extent.centerY) == "core")
  }

  test("single-site voronoi assigns everything to that site") {
    val m = RegionMap.voronoi(extent, 1, "only", seed = 12)
    assert(m.regionOf(0, 0) == "only-000")
    assert(m.regionOf(9999, 9999) == "only-000")
  }

  test("region maps are serializable (used inside closures)") {
    val m = RegionMap.voronoi(extent, 5, "r", seed = 13)
    val bytes = new java.io.ByteArrayOutputStream()
    new java.io.ObjectOutputStream(bytes).writeObject(m)
    assert(bytes.size() > 0)
  }
}
