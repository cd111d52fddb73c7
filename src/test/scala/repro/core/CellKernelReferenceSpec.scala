package repro.core

import scala.collection.mutable
import scala.math.Ordering.Double.TotalOrdering

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite

import repro.PropHelpers

/** The per-cell kernel as it was written over collections of tuples: the
  * histogram as a linked map, Phases 1–3 and the corrector ranking by tuple
  * keys. `Sparcle.decide` must agree with it bit for bit.
  */
object CellKernelReference {

  /** `(value, nearW)` per non-null value, in first-occurrence order, own value first. */
  def entries(own: String, neighbours: Seq[(String, Double)]): Seq[(String, Double)] = {
    val sums = mutable.LinkedHashMap.empty[String, Double]
    if (own != null) sums(own) = 0.0
    neighbours.foreach { case (v, w) => if (v != null) sums(v) = sums.getOrElse(v, 0.0) + w }
    sums.toSeq
  }

  def phases(own: String, entries: Seq[(String, Double)], stats: ValueStats,
             params: CandGenParams): (Seq[Candidate], String) = {
    val totalW = entries.map(_._2).sum
    val scored = entries.map { case (v, nearW) =>
      val isOrig = v == own
      val sumW = if (nearW > 0) nearW else params.defaultWeight
      val prior = (if (isOrig) 1.0 else params.minimalityBias) / stats.counts.getOrElse(v, 1L).toDouble
      val prob = (sumW / stats.total.toDouble) * prior
      val f = SpatialInputFormulator.formats(nearW, totalW)
      Candidate(v, nearW, isOrig, sumW, prob, normProb = 0.0, totalW, f.viol, f.p, f.fg)
    }
    val mass = scored.map(_.prob).sum
    val ranked = scored.map(c => c.copy(normProb = c.prob / mass)).sortBy(c => (-c.normProb, c.value))
    val kept = ranked.take(1) ++ ranked.drop(1).filter(_.normProb >= params.minProb)
    val label = kept.headOption
      .filter(top => kept.size == 1 || top.normProb > params.maxProb).map(_.value).orNull
    (kept, label)
  }

  def correct(candidates: Seq[Candidate], label: String, margin: Double): String =
    if (label != null || candidates.isEmpty) label
    else {
      val pick = candidates.minBy(c => (c.viol, -c.normProb, c.value))
      candidates.find(_.isOrig).filter(o => o.viol - pick.viol <= margin * pick.totalW)
        .getOrElse(pick).value
    }

  def decide(id: Long, own: String, neighbours: Seq[(String, Double)], stats: ValueStats,
             params: CandGenParams, margin: Double): Cell = {
    val es = entries(own, neighbours)
    val (candidates, label) = phases(own, es, stats, params)
    Cell(id, own, own == null || es.exists(_._1 != own), candidates, label, correct(candidates, label, margin))
  }
}

class CellKernelReferenceSpec extends AnyFunSuite with PropHelpers {

  private def bits(d: Double) = java.lang.Double.doubleToRawLongBits(d)

  private def fields(c: Candidate) =
    (c.value, c.isOrig, Seq(c.nearW, c.sumW, c.prob, c.normProb, c.totalW, c.viol, c.p, c.fg).map(bits))

  /** A cell: its own value, its neighbours' values and weights, and the
    * statistics. Values come from a pool of 1–60, and weights from a few
    * levels (or all 0), so sums and normProb often tie across values; the
    * own value may be null or carried by no neighbour, and some values have
    * no count.
    */
  private val cells: Gen[(String, Seq[(String, Double)], ValueStats)] = for {
    pool <- Gen.choose(1, 60)
    values = (0 until pool).map(i => s"v${i % 7}-$i")
    allZero <- Gen.frequency(1 -> true, 5 -> false)
    weight = if (allZero) Gen.const(0.0)
             else Gen.frequency(3 -> Gen.oneOf(0.25, 0.5, 1.0, 0.0), 1 -> Gen.choose(0.0, 1.0))
    n <- Gen.choose(0, 80)
    neighbours <- Gen.listOfN(n, Gen.zip(Gen.frequency(8 -> Gen.oneOf(values), 1 -> Gen.const(null: String)),
                                         weight))
    own <- Gen.frequency(4 -> Gen.oneOf(values), 1 -> Gen.const(null: String), 1 -> Gen.const("absent"))
    counted <- Gen.someOf(values)
    count <- Gen.oneOf(Gen.const(5L), Gen.choose(1L, 40L))
    total <- Gen.choose(1L, 100000L)
  } yield (own, neighbours, ValueStats(counted.map(_ -> count).toMap, total))

  test("Sparcle.decide equals the tuple-keyed reference bit for bit on random histograms") {
    val params = Seq(CandGenParams(), CandGenParams(minProb = 0.0, maxProb = 0.6), CandGenParams(minProb = 0.3))
    var ties = 0
    forAllSeeded(cells, n = 400) { case (own, neighbours, stats) =>
      for (margin <- Seq(0.0, 0.25, 1.0); p <- params) {
        val want = CellKernelReference.decide(7L, own, neighbours, stats, p, margin)
        val got = Sparcle.decide(7L, Histogram(own, neighbours), stats, p, margin)
        val at = s"own $own, margin $margin, $p, ${neighbours.take(8)}"
        assert(got.detected == want.detected, at)
        assert(got.candidates.map(fields) == want.candidates.map(fields), at)
        assert(got.label == want.label, at)
        assert(got.newValue == want.newValue, at)
        if (want.candidates.map(_.normProb).distinct.size < want.candidates.size) ties += 1
      }
    }
    assert(ties > 0, "some cells tie in normProb")
  }
}
