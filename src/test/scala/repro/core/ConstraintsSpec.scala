package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen

import repro.PropHelpers

class ConstraintsSpec extends AnyFunSuite with PropHelpers {

  test("weight is 1 at distance 0") {
    for (n <- Seq(0.0, 1.0, 2.0, 4.0, 16.0))
      assert(PowerWeight(n).weight(0, 1000) == 1.0)
  }

  test("weight approaches 0 at distance d") {
    for (n <- Seq(1.0, 2.0, 4.0))
      assert(PowerWeight(n).weight(1000, 1000) == 0.0)
  }

  test("n=0 cancels distance weighting (ablation semantics)") {
    val w = PowerWeight(0)
    for (dist <- Seq(0.0, 1.0, 500.0, 999.9, 1000.0))
      assert(w.weight(dist, 1000) == 1.0, s"dist=$dist")
  }

  test("paper's example weights: d=1km, n=2") {
    val w = PowerWeight(2)
    assert(math.abs(w.weight(200, 1000) - 0.64) < 1e-12)
    assert(math.abs(w.weight(500, 1000) - 0.25) < 1e-12)
    assert(math.abs(w.weight(600, 1000) - 0.16) < 1e-12)
    assert(math.abs(w.weight(800, 1000) - 0.04) < 1e-12)
    assert(math.abs(w.weight(900, 1000) - 0.01) < 1e-12)
  }

  test("weight is within [0, 1] for any in-range distance") {
    forAllSeeded(Gen.zip(Gen.chooseNum(0.0, 1000.0), Gen.chooseNum(0.0, 16.0))) {
      case (dist, n) =>
        val w = PowerWeight(n).weight(dist, 1000)
        assert(w >= 0.0 && w <= 1.0, s"dist=$dist n=$n w=$w")
    }
  }

  test("weight decreases with distance (n > 0)") {
    forAllSeeded(Gen.zip(Gen.chooseNum(0.0, 999.0), Gen.chooseNum(0.5, 8.0))) {
      case (dist, n) =>
        val w = PowerWeight(n)
        assert(w.weight(dist, 1000) >= w.weight(dist + 1, 1000))
    }
  }

  test("larger n weighs far pairs less and near pairs the same at 0") {
    val far = 900.0; val d = 1000.0
    assert(PowerWeight(4).weight(far, d) < PowerWeight(2).weight(far, d))
    assert(PowerWeight(4).weight(0, d) == PowerWeight(2).weight(0, d))
  }

  test("weight clamps to 0 beyond d instead of going negative") {
    assert(PowerWeight(2).weight(1500, 1000) == 0.0)
    assert(PowerWeight(1).weight(2000, 1000) == 0.0)
  }

  test("negative exponent is rejected") {
    intercept[IllegalArgumentException](PowerWeight(-1))
  }

  test("constraint constructors validate their parameters") {
    intercept[IllegalArgumentException](SpatialRange(0))
    intercept[IllegalArgumentException](SpatialRange(-10))
    intercept[IllegalArgumentException](SpatialKnn(0))
    assert(SpatialRange(1000).weight == PowerWeight(2)) // paper default n=2
    assert(SpatialKnn(10).weight == PowerWeight(2))
  }

  test("weight is (1 - dist/d)^n on a grid of distances") {
    val w = PowerWeight(3)
    for (dist <- 0 to 1000 by 100)
      assert(math.abs(w.weight(dist, 1000) - math.pow(1 - dist / 1000.0, 3)) < 1e-12)
  }
}
