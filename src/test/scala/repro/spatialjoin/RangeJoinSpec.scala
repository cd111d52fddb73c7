package repro.spatialjoin

import org.apache.spark.sql.functions._

import repro.{Oracle, SparkSpec, TestPoints}

class RangeJoinSpec extends SparkSpec {

  private def collectPairs(df: org.apache.spark.sql.DataFrame) =
    df.collect().map(r => (r.getLong(0), r.getLong(1), r.getString(2), r.getString(3),
                           BigDecimal(r.getDouble(4)).setScale(6, BigDecimal.RoundingMode.HALF_UP)))
      .toSet

  private def bruteSet(pts: Seq[TestPoints.Pt], d: Double) =
    TestPoints.brutePairs(pts, d).map { case (a, b, v1, v2, dist) =>
      (a, b, v1, v2, BigDecimal(dist).setScale(6, BigDecimal.RoundingMode.HALF_UP))
    }.toSet

  test("range join matches brute force on a random point set") {
    val pts = TestPoints.random(n = 200, extent = 1000, nValues = 4, seed = 1)
    val got = collectPairs(RangeJoin.pairs(TestPoints.df(spark, pts), d = 120))
    assert(got == bruteSet(pts, 120))
    assert(got.nonEmpty, "test must exercise non-empty joins")
  }

  test("range join matches brute force at a larger radius spanning many cells") {
    val pts = TestPoints.random(n = 120, extent = 500, nValues = 3, seed = 2)
    val got = collectPairs(RangeJoin.pairs(TestPoints.df(spark, pts), d = 400))
    assert(got == bruteSet(pts, 400))
  }

  test("range join with radius exceeding the extent returns all ordered pairs") {
    val pts = TestPoints.random(n = 40, extent = 100, nValues = 2, seed = 3)
    val got = RangeJoin.pairs(TestPoints.df(spark, pts), d = 10000)
    assert(got.count() == 40L * 39L)
  }

  test("range join emits both orientations of every pair") {
    val pts = Seq((1L, 0.0, 0.0, "a"), (2L, 3.0, 4.0, "b"))
    val got = RangeJoin.pairs(TestPoints.df(spark, pts), d = 10).collect()
    assert(got.length == 2)
    val keys = got.map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(keys == Set((1L, 2L), (2L, 1L)))
    assert(got.forall(_.getDouble(4) == 5.0))
  }

  test("range join uses a strict inequality on the distance") {
    val pts = Seq((1L, 0.0, 0.0, "a"), (2L, 100.0, 0.0, "b"))
    assert(RangeJoin.pairs(TestPoints.df(spark, pts), d = 100).count() == 0)
    assert(RangeJoin.pairs(TestPoints.df(spark, pts), d = 100.001).count() == 2)
  }

  test("range join excludes self pairs but keeps distinct co-located records") {
    val pts = Seq((1L, 5.0, 5.0, "a"), (2L, 5.0, 5.0, "b"), (3L, 5.0, 5.0, "c"))
    val got = RangeJoin.pairs(TestPoints.df(spark, pts), d = 1).collect()
    assert(got.length == 6) // 3 points × 2 co-located partners
    assert(got.forall(_.getDouble(4) == 0.0))
    assert(got.forall(r => r.getLong(0) != r.getLong(1)))
  }

  test("range join keeps null values on both sides") {
    val pts = Seq((1L, 0.0, 0.0, null: String), (2L, 1.0, 0.0, "b"))
    val got = RangeJoin.pairs(TestPoints.df(spark, pts), d = 10).collect()
    assert(got.length == 2)
    assert(got.exists(r => r.isNullAt(2) && r.getString(3) == "b"))
    assert(got.exists(r => r.getString(2) == "b" && r.isNullAt(3)))
  }

  test("range join handles negative coordinates (floor-based cells)") {
    val pts = Seq((1L, -0.5, -0.5, "a"), (2L, 0.5, 0.5, "b"), (3L, -10.0, -10.0, "c"))
    val got = collectPairs(RangeJoin.pairs(TestPoints.df(spark, pts), d = 2.0))
    assert(got == bruteSet(pts, 2.0))
  }

  test("range join matches brute force on cell borders, at ±1 ulp of them and on large coordinates") {
    // Coordinates on multiples of d (so of the 2d cell side too), one ulp to
    // either side, around the origin and far from it on both signs. With
    // d = 0.75 neighbouring multiples lie exactly d apart, which the strict
    // test excludes; d = 0.1 makes every multiple a rounded value.
    for (d <- Seq(0.75, 0.1); base <- Seq(0L, -1000001L, 1000000000L, -4000000000001L)) {
      val coords = (-3L to 3L).map(k => (base + k) * d)
        .flatMap(c => Seq(math.nextDown(c), c, math.nextUp(c)))
      val pts = for ((x, i) <- coords.zipWithIndex; (y, j) <- coords.zipWithIndex if (i + j) % 4 == 0)
        yield (i * 100L + j, x, y, s"v${(i + j) % 3}")
      // The join's distance, bit for bit (Geo.dist's hypot rounds otherwise).
      val brute = for {
        a <- pts; b <- pts if a._1 != b._1
        dist = math.sqrt(StrictMath.pow(a._2 - b._2, 2) + StrictMath.pow(a._3 - b._3, 2)) if dist < d
      } yield (a._1, b._1, dist)
      val got = RangeJoin.pairs(TestPoints.df(spark, pts), d).collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(4)))
      assert(got.length == brute.length, s"d=$d base=$base")
      assert(got.toSet == brute.toSet, s"d=$d base=$base")
      assert(brute.nonEmpty && brute.size < pts.size * (pts.size - 1), s"d=$d base=$base")
    }
  }

  /** Each point's copies in `RangeJoin.cells`: its cells and its probe cells. */
  private def copiesOf(pts: Seq[TestPoints.Pt], d: Double) =
    RangeJoin.cells(TestPoints.df(spark, pts), d).blocks.values.collect().toSeq.flatMap(TestBlocks.copiesOf)
      .groupBy(_.id).map { case (id, cs) =>
      id -> (cs.map(c => (c.cx, c.cy)).toSet, cs.filter(_.probe).map(c => (c.cx, c.cy)))
    }

  test("range join copies each point into the cells of side 2d that its span reaches, one of them its probe") {
    val d = 0.75
    val coords = Seq(-3000000000000.0, -1.5, -0.75, 0.0, 0.75, 1.5, 7.0, 1e9)
      .flatMap(c => Seq(math.nextDown(c), c, math.nextUp(c), c + 0.3 * d))
    val pts = for ((x, i) <- coords.zipWithIndex; (y, j) <- coords.zipWithIndex)
      yield (i * 100L + j, x, y, "v")
    def cell(c: Double) = math.floor(c / (2 * d)).toLong
    def span(c: Double) = cell(c - d) to cell(c + d)
    val copies = copiesOf(pts, d)
    assert(copies.keySet == pts.map(_._1).toSet)
    for ((id, x, y, _) <- pts) {
      val (cells, probes) = copies(id)
      assert(cells == (for (cx <- span(x); cy <- span(y)) yield (cx, cy)).toSet, s"cells of $id")
      assert(probes == Seq((cell(x), cell(y))), s"probe of $id")
    }
  }

  test("range join copies a point in general position into 4 cells") {
    val pts = TestPoints.random(n = 300, extent = 5000, nValues = 2, seed = 5)
      .map { case (id, x, y, v) => (id, x - 2500, y - 2500, v) }
    val copies = copiesOf(pts, 40)
    assert(copies.size == pts.size)
    assert(copies.values.forall { case (cells, probes) => cells.size == 4 && probes.size == 1 })
  }

  test("range join rejects non-positive d") {
    val pts = TestPoints.df(spark, Seq((1L, 0.0, 0.0, "a")))
    intercept[IllegalArgumentException](RangeJoin.pairs(pts, 0))
    intercept[IllegalArgumentException](RangeJoin.pairs(pts, -5))
  }

  test("range join result agrees with a DuckDB brute-force spatial join") {
    val pts = TestPoints.random(n = 80, extent = 300, nValues = 3, seed = 4)
    val d = 90.0
    val sparkDf = RangeJoin.pairs(TestPoints.df(spark, pts), d)
      .select(col("r1"), col("r2"), col("v1"), col("v2"),
              round(col("dist"), 3).as("dist3"))
    val sql =
      s"""SELECT CAST(a.id AS BIGINT) AS r1, CAST(b.id AS BIGINT) AS r2,
         |       a.value AS v1, b.value AS v2,
         |       round(sqrt((CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE)) * (CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE))
         |                + (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE)) * (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE))), 3) AS dist3
         |FROM pts a JOIN pts b ON a.id <> b.id
         |WHERE sqrt((CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE)) * (CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE))
         |         + (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE)) * (CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE))) < $d
         |""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "pts" -> TestPoints.df(spark, pts))
  }

  test("exactPairs returns only identical coordinates") {
    val pts = Seq(
      (1L, 1.0, 1.0, "a"), (2L, 1.0, 1.0, "b"), (3L, 1.0, 1.0000001, "c"), (4L, 2.0, 2.0, "d"))
    val got = RangeJoin.exactPairs(TestPoints.df(spark, pts)).collect()
    val keys = got.map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(keys == Set((1L, 2L), (2L, 1L)))
    assert(got.forall(_.getDouble(4) == 0.0))
  }

  test("exactPairs agrees with a DuckDB equality self-join") {
    val pts = TestPoints.random(n = 60, extent = 5, nValues = 3, seed = 6)
      .map { case (id, x, y, v) => (id, math.floor(x), math.floor(y), v) } // force duplicates
    val sparkDf = RangeJoin.exactPairs(TestPoints.df(spark, pts)).select("r1", "r2", "v1", "v2")
    val sql =
      """SELECT CAST(a.id AS BIGINT) AS r1, CAST(b.id AS BIGINT) AS r2, a.value AS v1, b.value AS v2
        |FROM pts a JOIN pts b ON a.x = b.x AND a.y = b.y AND a.id <> b.id
        |""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "pts" -> TestPoints.df(spark, pts))
  }
}
