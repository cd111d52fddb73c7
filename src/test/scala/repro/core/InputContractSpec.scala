package repro.core

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.{col, udf}
import org.apache.spark.sql.types._

import repro.{SparkSpec, TestPoints}
import repro.cleaning.{BaranLike, HoloCleanLike}

/** The points contract, checked by every `clean` call (Sparcle and
  * HoloCleanLike in their join's job, BaranLike in a value-statistics pass)
  * and by `DistanceMatrix.build`, all with the same message: the columns
  * `id: long, x: double, y: double, value: string` first, a non-null `id`,
  * finite `x` and `y`, and no id given twice.
  */
class InputContractSpec extends SparkSpec {

  private def frame(rows: Seq[Row], value: DataType = StringType): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 3), StructType(Seq(
      StructField("id", LongType), StructField("x", DoubleType),
      StructField("y", DoubleType), StructField("value", value))))

  private def rejects(points: DataFrame): String = {
    val e = intercept[IllegalArgumentException](Sparcle.clean(points, SparcleParams(SpatialRange(10))))
    val h = intercept[IllegalArgumentException](HoloCleanLike.clean(points))
    assert(h.getMessage == e.getMessage)
    val b = intercept[IllegalArgumentException](DistanceMatrix.build(points, SpatialRange(10)))
    assert(b.getMessage == e.getMessage)
    val bl = intercept[IllegalArgumentException](BaranLike.clean(points, points.select("id", "value")))
    assert(bl.getMessage == e.getMessage)
    e.getMessage
  }

  test("a null id is rejected") {
    val msg = rejects(frame(Seq(Row(1L, 0.0, 0.0, "a"), Row(null, 3.0, 4.0, "b"), Row(2L, 1.0, 0.0, "a"))))
    assert(msg.contains("null id"), msg)
    assert(msg.contains("3.0"), msg)
  }

  test("non-finite coordinates are rejected, naming the record") {
    for (bad <- Seq(Row(7L, Double.NaN, 0.0, "b"), Row(7L, 0.0, Double.PositiveInfinity, "b"),
                    Row(7L, null, 0.0, "b"))) {
      val msg = rejects(frame(Seq(Row(1L, 0.0, 0.0, "a"), bad, Row(2L, 1.0, 0.0, "a"))))
      assert(msg.contains("id 7"), msg)
    }
  }

  test("a non-string value column is rejected on the driver, before any row is read") {
    // Evaluating this column on an executor would fail with another error.
    val unread = udf((_: String) => { if (true) throw new IllegalStateException("row read"); 0 })
    val pts = TestPoints.df(spark, Seq((1L, 0.0, 0.0, "1"), (2L, 1.0, 0.0, "2")))
      .withColumn("value", unread(col("value")))
    val msg = rejects(pts)
    assert(msg.contains("value must be a string column"), msg)
    assert(msg.contains("IntegerType"), msg)
  }

  test("a frame that does not start with the contract's columns and types is rejected on the driver") {
    val pts = TestPoints.df(spark, Seq((1L, 0.0, 0.0, "a"), (2L, 1.0, 0.0, "b")))
    val reordered = rejects(pts.select("x", "id", "y", "value"))
    assert(reordered.contains("columns must start with id, x, y, value"), reordered)
    val intIds = rejects(pts.withColumn("id", col("id").cast("int")))
    assert(intIds.contains("id must be a long column, got IntegerType"), intIds)
  }

  test("a duplicated id is rejected, naming it") {
    // Records 3 ("a") and 3 ("b") are within d of each other and of the rest.
    val msg = rejects(frame(Seq(
      Row(1L, 0.0, 0.0, "a"), Row(2L, 1.0, 0.0, "a"), Row(3L, 2.0, 0.0, "a"),
      Row(3L, 3.0, 0.0, "b"), Row(4L, 4.0, 0.0, "a"), Row(5L, 5.0, 0.0, "a"))))
    assert(msg.contains("duplicate id 3"), msg)
  }

  test("a bad record only in the last input partition is rejected, naming it") {
    val rows = (1L to 8L).map(i => Row(i, i.toDouble, 0.0, "a")) :+ Row(9L, Double.NaN, 0.0, "a")
    val msg = rejects(frame(rows))
    assert(msg == "points: id 9: non-finite coordinates (NaN, 0.0)", msg)
  }

  test("a duplicated id whose records lie in different cells is rejected, naming the smallest") {
    // With d = 10, each id's two records lie far apart, in cells of their own.
    val msg = rejects(frame(Seq(
      Row(5L, 0.0, 0.0, "a"), Row(3L, 0.0, 1000.0, "a"), Row(1L, 1.0, 0.0, "b"),
      Row(3L, 2000.0, 0.0, "b"), Row(2L, 5.0, 5.0, "a"), Row(5L, -3000.0, -3000.0, "c"))))
    assert(msg == "points: duplicate id 3", msg)
  }

  test("an input with a null id and a duplicated id is rejected for the null id") {
    // The duplicate comes first, in the first input partition.
    val msg = rejects(frame(Seq(
      Row(1L, 0.0, 0.0, "a"), Row(1L, 500.0, 0.0, "a"), Row(2L, 1.0, 0.0, "b"), Row(null, 3.0, 4.0, "b"))))
    assert(msg == "points: null id (x=3.0, y=4.0)", msg)
  }
}
