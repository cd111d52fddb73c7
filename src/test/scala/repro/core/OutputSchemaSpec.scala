package repro.core

import org.apache.spark.sql.DataFrame

import repro.{SparkSpec, TestPoints}
import repro.cleaning.HoloCleanLike

/** The schemas of a clean's frames: names, types and nullability, for every
  * join kind and for HoloCleanLike. A caller that reads a frame by position
  * or type, or writes it out, sees a change here first.
  */
class OutputSchemaSpec extends SparkSpec {

  private lazy val pts = TestPoints.df(spark, TestPoints.random(200, 1000, 4, seed = 7, nullEvery = 9))

  /** `name: type`, with ` not null` on a non-nullable column. */
  private def shape(df: DataFrame): Seq[String] = df.schema.fields.toSeq.map(f =>
    s"${f.name}: ${f.dataType.simpleString}${if (f.nullable) "" else " not null"}")

  private val erroneous = Seq("id: bigint not null")
  private val candidates = Seq("id: bigint not null", "value: string", "nearW: double", "isOrig: boolean",
    "sumW: double", "prob: double", "normProb: double", "totalW: double", "viol: double", "p: double",
    "fg: double")
  private val labels = Seq("id: bigint not null", "label: string")
  private val dm = Seq("r1: bigint not null", "r2: bigint not null", "v1: string", "v2: string",
    "dist: double not null", "w: double not null")

  private def check(name: String, r: SparcleResult, repairs: Seq[String]): Unit = {
    assert(shape(r.repairs) == repairs, s"$name repairs")
    assert(shape(r.erroneous) == erroneous, s"$name erroneous")
    assert(shape(r.candidates) == candidates, s"$name candidates")
    assert(shape(r.labels) == labels, s"$name labels")
    assert(shape(r.dm) == dm, s"$name dm")
  }

  test("Sparcle's frames have the same schema under a range, exact-location and kNN constraint") {
    val repairs = Seq("id: bigint not null", "oldValue: string", "newValue: string not null")
    for ((name, c) <- Seq("SpatialRange" -> SpatialRange(150), "ExactLocation" -> ExactLocation,
                          "SpatialKnn" -> SpatialKnn(5)))
      check(name, Sparcle.clean(pts, SparcleParams(c)), repairs)
  }

  test("HoloCleanLike's repairs have a non-null newValue, its fallback being the modal value") {
    check("HoloCleanLike", HoloCleanLike.clean(pts),
          Seq("id: bigint not null", "oldValue: string", "newValue: string not null"))
  }
}
