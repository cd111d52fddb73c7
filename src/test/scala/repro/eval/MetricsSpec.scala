package repro.eval

import repro.{SparkSpec, TestPoints}

class MetricsSpec extends SparkSpec {

  import spark.implicits._

  private def repairsDf(rs: Seq[(Long, String, String)]) =
    rs.toDF("id", "oldValue", "newValue")

  private def truthDf(ts: Seq[(Long, String)]) = ts.toDF("id", "value")

  test("Scores arithmetic: precision, recall, F1") {
    val s = Scores(repairs = 10, correctRepairs = 8, errors = 16)
    assert(s.precision == 0.8)
    assert(s.recall == 0.5)
    assert(math.abs(s.f1 - 2 * 0.8 * 0.5 / 1.3) < 1e-12)
  }

  test("Scores degenerate cases avoid division by zero") {
    assert(Scores(0, 0, 5).precision == 0.0)
    assert(Scores(0, 0, 5).recall == 0.0)
    assert(Scores(0, 0, 5).f1 == 0.0)
    assert(Scores(3, 0, 0).recall == 0.0)
    assert(Scores(0, 0, 0).f1 == 0.0)
  }

  test("score counts errors including missing values") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "x"), (3L, 2.0, 0.0, null: String)))
    val truth = truthDf(Seq(1L -> "a", 2L -> "a", 3L -> "a"))
    val s = Metrics.score(pts, truth, repairsDf(Nil))
    assert(s.errors == 2)
    assert(s.repairs == 0)
  }

  test("score credits only repairs that land on the truth") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "x"), (2L, 1.0, 0.0, "y"), (3L, 2.0, 0.0, "a")))
    val truth = truthDf(Seq(1L -> "a", 2L -> "a", 3L -> "a"))
    val s = Metrics.score(pts, truth,
      repairsDf(Seq((1L, "x", "a"), (2L, "y", "b"))))
    assert(s.repairs == 2)
    assert(s.correctRepairs == 1)
    assert(s.precision == 0.5)
    assert(s.recall == 0.5)
  }

  test("a wrong repair of a clean cell costs precision but not recall") {
    val pts = TestPoints.df(spark, Seq((1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "x")))
    val truth = truthDf(Seq(1L -> "a", 2L -> "a"))
    val s = Metrics.score(pts, truth,
      repairsDf(Seq((1L, "a", "b"), (2L, "x", "a"))))
    assert(s.errors == 1)
    assert(s.repairs == 2 && s.correctRepairs == 1)
    assert(s.precision == 0.5 && s.recall == 1.0)
  }

  test("dupSplit partitions errors by exact location duplication") {
    val pts = TestPoints.df(spark, Seq(
      (1L, 0.0, 0.0, "a"), (2L, 0.0, 0.0, "x"),   // dup pair, one error
      (3L, 5.0, 5.0, "y"),                          // unique-location error
      (4L, 9.0, 9.0, "a")))                         // unique clean
    val truth = truthDf(Seq(1L -> "a", 2L -> "a", 3L -> "a", 4L -> "a"))
    val split = Metrics.dupSplit(pts, truth, repairsDf(Seq((2L, "x", "a"))))
    assert(split.total.errors == 2)
    assert(split.duplicated.errors == 1)
    assert(split.newLocation.errors == 1)
    assert(split.duplicated.recall == 1.0)
    assert(split.newLocation.recall == 0.0)
    assert(split.total.recall == 0.5)
  }

  test("overall requires every attribute of a record to be corrected") {
    val records = Seq(
      (1L, 0.0, 0.0, "a-bad", "b-ok"),
      (2L, 1.0, 0.0, "a-ok", "b-bad"),
      (3L, 2.0, 0.0, "a-bad", "b-bad"),
      (4L, 3.0, 0.0, "a-ok", "b-ok"),
    ).toDF("id", "x", "y", "attrA", "attrB")
    val truth = Seq(
      (1L, "a-ok", "b-ok"), (2L, "a-ok", "b-ok"), (3L, "a-ok", "b-ok"), (4L, "a-ok", "b-ok"),
    ).toDF("id", "attrA", "attrB")
    // Repairs fix record 1 fully, record 3 only half.
    val repA = repairsDf(Seq((1L, "a-bad", "a-ok"), (3L, "a-bad", "a-ok")))
    val repB = repairsDf(Nil)
    val s = Metrics.overall(records, truth, Map("attrA" -> repA, "attrB" -> repB))
    assert(s.errors == 3)          // records 1, 2, 3
    assert(s.repairs == 2)         // records 1 and 3 touched
    assert(s.correctRepairs == 1)  // only record 1 ends fully correct
    assert(s.precision == 0.5)
    assert(math.abs(s.recall - 1.0 / 3.0) < 1e-12)
  }

  test("overall treats null attributes as erroneous") {
    val records = Seq((1L, 0.0, 0.0, null.asInstanceOf[String]), (2L, 1.0, 0.0, "ok"))
      .toDF("id", "x", "y", "attrA")
    val truth = Seq((1L, "ok"), (2L, "ok")).toDF("id", "attrA")
    val s = Metrics.overall(records, truth,
      Map("attrA" -> repairsDf(Seq((1L, null.asInstanceOf[String], "ok")))))
    assert(s.errors == 1 && s.repairs == 1 && s.correctRepairs == 1)
  }
}
