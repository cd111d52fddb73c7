package repro.core

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.eval.Tables

/** Golden tests replaying the paper's worked example (Fig. 3, Table 2,
  * Fig. 4) through the DistanceMatrix-input views (`PaperExampleFrames.run`)
  * and asserting the printed values, and that Table 2 from the per-cell
  * kernel agrees with them.
  *
  * One documented deviation (DESIGN.md §3): Table 2 lists r5's "S. Island"
  * sum-weight as 0.01, but the paper's own DistanceMatrix contains the row
  * (r5, r1, Queens, S. Island, 800, 0.04), so the principled sum is 0.04. We
  * assert 0.04; the Phase-3 outcome (S. Island dropped by MinProb, r5
  * labeled Queens) is identical either way.
  */
class PaperExampleSpec extends SparkSpec {

  private val eps = 0.01 // the paper prints two decimals

  private lazy val (err, cand, scored) = PaperExampleFrames.run(spark)
  private lazy val byCell: Map[(Long, String), (Double, Double, Double, Double, Double, Double)] =
    scored.collect().map { r =>
      ((r.getAs[Long]("id"), r.getAs[String]("value")),
       (r.getAs[Double]("nearW"), r.getAs[Double]("sumW"), r.getAs[Double]("normProb"),
        r.getAs[Double]("viol"), r.getAs[Double]("p"), r.getAs[Double]("fg")))
    }.toMap

  import PaperExample._

  test("Fig 3c: matrix weights match the paper's W column") {
    val w = PaperExampleFrames.distanceMatrix(spark).collect()
      .map(r => ((r.getLong(0), r.getLong(1)), r.getDouble(5))).toMap
    assert(math.abs(w((1L, 2L)) - 0.64) < 1e-9)
    assert(math.abs(w((1L, 3L)) - 0.25) < 1e-9)
    assert(math.abs(w((1L, 4L)) - 0.04) < 1e-9)
    assert(math.abs(w((2L, 3L)) - 0.16) < 1e-9)
    assert(math.abs(w((2L, 4L)) - 0.01) < 1e-9)
    assert(math.abs(w((5L, 7L)) - 0.01) < 1e-9)
  }

  test("Table 2: candidate sets per cell") {
    val sets = byCell.keySet.groupBy(_._1).view.mapValues(_.map(_._2)).toMap
    assert(sets(1L) == Set(Man, Queens, SI))
    assert(sets(2L) == Set(Man, SI))         // Queens dropped by MinProb
    assert(sets(3L) == Set(Man, SI))
    assert(sets(4L) == Set(Queens, SI))      // Manhattan dropped by MinProb
    assert(sets(5L) == Set(Queens))          // S. Island dropped by MinProb
    assert(sets(6L) == Set(Queens, SI))
  }

  test("Table 2: sum-of-weights column") {
    assert(math.abs(byCell((1L, Man))._2 - 0.89) < 1e-9)
    assert(math.abs(byCell((1L, Queens))._2 - 0.12) < 1e-9)
    assert(math.abs(byCell((1L, SI))._2 - 0.01) < 1e-9) // default: no nearby S. Island
    assert(math.abs(byCell((2L, Man))._2 - 0.16) < 1e-9)
    assert(math.abs(byCell((2L, SI))._2 - 0.64) < 1e-9)
    assert(math.abs(byCell((3L, Man))._2 - 0.16) < 1e-9)
    assert(math.abs(byCell((3L, SI))._2 - 0.25) < 1e-9)
    assert(math.abs(byCell((4L, Queens))._2 - 0.16) < 1e-9)
    assert(math.abs(byCell((4L, SI))._2 - 0.04) < 1e-9)
    assert(math.abs(byCell((5L, Queens))._2 - 0.33) < 1e-9)
    assert(math.abs(byCell((6L, Queens))._2 - 0.16) < 1e-9)
    assert(math.abs(byCell((6L, SI))._2 - 0.04) < 1e-9)
  }

  test("Table 2: normalized probabilities (two-decimal tolerance)") {
    assert(math.abs(byCell((1L, Man))._3 - 0.68) < eps)
    assert(math.abs(byCell((1L, Queens))._3 - 0.09) < eps)
    assert(math.abs(byCell((1L, SI))._3 - 0.23) < eps)
    assert(math.abs(byCell((2L, Man))._3 - 0.45) < eps)
    assert(math.abs(byCell((2L, SI))._3 - 0.54) < eps)
    assert(math.abs(byCell((3L, Man))._3 - 0.68) < eps)
    assert(math.abs(byCell((3L, SI))._3 - 0.32) < eps)
    assert(math.abs(byCell((4L, Queens))._3 - 0.92) < eps)
    assert(math.abs(byCell((4L, SI))._3 - 0.07) < eps)
    assert(math.abs(byCell((6L, Queens))._3 - 0.93) < eps)
    assert(math.abs(byCell((6L, SI))._3 - 0.07) < eps)
    // r5 with the principled 0.04 S. Island weight: Queens 0.965 (still > MaxProb)
    assert(byCell((5L, Queens))._3 > 0.95)
  }

  test("Table 2: exact probability fractions for r1 (sixth column)") {
    val probs = cand.candidates.where(col("id") === 1L)
      .collect().map(r => r.getAs[String]("value") -> r.getAs[Double]("prob")).toMap
    assert(math.abs(probs(Man) - 89.0 / 300000000) < 1e-15)
    assert(math.abs(probs(Queens) - 1.0 / 25000000) < 1e-15)
    assert(math.abs(probs(SI) - 1.0 / 10000000) < 1e-15)
  }

  test("Phase 3: r5 is auto-labeled Queens; others stay erroneous") {
    val labels = cand.labels.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    assert(labels == Map(5L -> Queens))
    val remaining = cand.remaining.collect().map(_.getLong(0)).toSet
    assert(remaining == Set(1L, 2L, 3L, 4L, 6L))
  }

  test("Fig 4a: Sparcle violation-based feature vector for r1") {
    assert(math.abs(byCell((1L, Man))._4 - 0.12) < 1e-9)
    assert(math.abs(byCell((1L, Queens))._4 - 0.89) < 1e-9)
    assert(math.abs(byCell((1L, SI))._4 - 1.01) < 1e-9)
  }

  test("Fig 4b: Sparcle probability-based feature vector for r1") {
    assert(math.abs(byCell((1L, Man))._5 - 0.88) < eps)
    assert(math.abs(byCell((1L, Queens))._5 - 0.12) < eps)
    assert(byCell((1L, SI))._5 == 0.0)
  }

  test("Fig 4c: Sparcle factor-graph sums for r1") {
    assert(math.abs(byCell((1L, Man))._6 - 0.77) < 1e-9)
    assert(math.abs(byCell((1L, Queens))._6 - (-0.77)) < 1e-9)
    assert(math.abs(byCell((1L, SI))._6 - (-1.01)) < 1e-9)
  }

  test("corrector: repairs agree with Table 2's favored values") {
    // Violation-minimizing corrector with the initial-value margin: r1 →
    // Manhattan (was S. Island), r2 → S. Island (was Manhattan) — matching
    // the paper's top normalized probabilities (0.68 and 0.54); r3 keeps
    // Manhattan (violation gap 0.09 within the initial-value margin, and the
    // paper's probabilities favor it 0.68); r4..r6 keep their originals.
    val repairs = Sparcle.repairsFrom(
      PaperExampleFrames.points(spark), err, scored, cand.labels).collect()
      .map(r => r.getLong(0) -> (r.getString(1), r.getString(2))).toMap
    assert(repairs == Map(
      1L -> (SI, Man),
      2L -> (Man, SI),
    ))
  }

  test("formulator score orderings are mutually consistent") {
    // For a fixed cell, lower violation ⇔ higher factor-graph sum ⇔ higher p.
    byCell.keySet.groupBy(_._1).foreach { case (id, keys) =>
      val rows = keys.toSeq.map(k => byCell(k))
      val byViol = rows.sortBy(_._4).map(_._2)
      val byFg = rows.sortBy(-_._6).map(_._2)
      val byP = rows.sortBy(-_._5).map(_._2)
      assert(byViol == byFg, s"cell $id viol/fg disagree")
      assert(byViol == byP, s"cell $id viol/p disagree")
    }
  }

  test("Table 2 from the kernel has the views' candidates and scores") {
    val views = cand.candidates.collect().map(r =>
      (r.getAs[Long]("id"), r.getAs[String]("value")) ->
        Seq(r.getAs[Double]("sumW"), r.getAs[Double]("prob"), r.getAs[Double]("normProb"))).toMap
    val kernel = Tables.table2().map(r => (r.cell, r.value) -> Seq(r.sumW, r.prob, r.normProb)).toMap
    assert(kernel.keySet == views.keySet)
    for ((k, scores) <- kernel; (a, b) <- scores.zip(views(k))) assert(math.abs(a - b) <= 1e-12, k)
  }
}
