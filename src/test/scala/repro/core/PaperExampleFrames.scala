package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The worked example (`PaperExample`) as frames, and the
  * DistanceMatrix-input views run over them, for the tests of those views.
  */
object PaperExampleFrames {

  import PaperExample._

  /** DistanceMatrix frame with weights computed by the constraint's W. */
  def distanceMatrix(spark: SparkSession): DataFrame = {
    import spark.implicits._
    MatrixRows
      .map { case (r1, r2, v1, v2, dist) => (r1, r2, v1, v2, dist, Weight.weight(dist, D)) }
      .toDF("r1", "r2", "v1", "v2", "dist", "w")
  }

  /** The seven records as a points frame. Coordinates are placeholders (the
    * fixture bypasses the spatial join and supplies the matrix directly).
    */
  def points(spark: SparkSession): DataFrame = {
    import spark.implicits._
    OrigValues.toSeq.sortBy(_._1)
      .map { case (id, v) => (id, 0.0, 0.0, v) }
      .toDF("id", "x", "y", "value")
  }

  /** Detector, candidate generator and formulators over the fixture. */
  def run(spark: SparkSession): (DataFrame, CandidateResult, DataFrame) = {
    val pts = points(spark)
    val dm = distanceMatrix(spark)
    val err = SpatialErrorDetector.erroneousCells(pts, dm)
    val cand = SpatialCandidateGenerator.generate(pts, dm, err, stats = Some(Stats))
    (err, cand, SpatialInputFormulator.allFormats(cand.candidates, dm))
  }
}
