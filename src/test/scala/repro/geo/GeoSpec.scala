package repro.geo

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropHelpers

class GeoSpec extends AnyFunSuite with PropHelpers {

  private val coord: Gen[Double] = Gen.chooseNum(-1e5, 1e5)

  test("dist is zero for identical points") {
    assert(Geo.dist(3.0, 4.0, 3.0, 4.0) == 0.0)
  }

  test("dist matches 3-4-5 triangle") {
    assert(Geo.dist(0, 0, 3, 4) == 5.0)
  }

  test("dist is symmetric") {
    forAllSeeded(Gen.zip(coord, coord, coord, coord)) { case (x1, y1, x2, y2) =>
      assert(Geo.dist(x1, y1, x2, y2) == Geo.dist(x2, y2, x1, y1))
    }
  }

  test("dist is non-negative") {
    forAllSeeded(Gen.zip(coord, coord, coord, coord)) { case (x1, y1, x2, y2) =>
      assert(Geo.dist(x1, y1, x2, y2) >= 0.0)
    }
  }

  test("dist satisfies the triangle inequality") {
    forAllSeeded(Gen.listOfN(6, coord)) { cs =>
      val Seq(ax, ay, bx, by, cx, cy) = cs
      assert(Geo.dist(ax, ay, cx, cy) <=
        Geo.dist(ax, ay, bx, by) + Geo.dist(bx, by, cx, cy) + 1e-6)
    }
  }

  test("extent geometry: width/height/area/diagonal/center") {
    val e = Extent(0, 0, 30, 40)
    assert(e.width == 30 && e.height == 40)
    assert(e.area == 1200.0)
    assert(e.centerX == 15.0 && e.centerY == 20.0)
  }

  test("extent.contains is half-open") {
    val e = Extent(0, 0, 10, 10)
    assert(e.contains(0, 0))
    assert(e.contains(9.999, 9.999))
    assert(!e.contains(10, 5))
    assert(!e.contains(5, 10))
    assert(!e.contains(-0.001, 5))
  }

  test("degenerate extents are rejected") {
    intercept[IllegalArgumentException](Extent(0, 0, 0, 10))
    intercept[IllegalArgumentException](Extent(0, 10, 10, 10))
    intercept[IllegalArgumentException](Extent(5, 0, 4, 10))
  }

  test("extent.sample stays inside and is deterministic in the seed") {
    val e = Extent(100, 200, 300, 400)
    val pts1 = { val r = new scala.util.Random(7); Seq.fill(500)(e.sample(r)) }
    val pts2 = { val r = new scala.util.Random(7); Seq.fill(500)(e.sample(r)) }
    assert(pts1 == pts2)
    assert(pts1.forall { case (x, y) => e.contains(x, y) })
  }

  test("extent.sample covers all four quadrants") {
    val e = Extent(0, 0, 10, 10)
    val r = new scala.util.Random(1)
    val pts = Seq.fill(200)(e.sample(r))
    assert(pts.exists { case (x, y) => x < 5 && y < 5 })
    assert(pts.exists { case (x, y) => x >= 5 && y < 5 })
    assert(pts.exists { case (x, y) => x < 5 && y >= 5 })
    assert(pts.exists { case (x, y) => x >= 5 && y >= 5 })
  }

  test("city extents are city-sized") {
    for (e <- Seq(CityExtents.Austin, CityExtents.Chicago, CityExtents.Nyc)) {
      assert(e.width >= 20000 && e.width <= 60000)
      assert(e.height >= 20000 && e.height <= 60000)
    }
  }
}
