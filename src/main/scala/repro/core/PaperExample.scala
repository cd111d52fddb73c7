package repro.core

/** The paper's running example (Fig. 3, Table 2, Fig. 4): seven records from
  * a 1,000-record NYC dataset, a SpatialRange constraint with d = 1 km and
  * W = (1 − F/d)², the DistanceMatrix of Fig. 3c and the value-frequency
  * table of Fig. 3b. Each record's cell comes from the per-cell kernel
  * [[Sparcle.decide]], with no Spark; Table 2 and the golden tests read it.
  */
object PaperExample {

  val D: Double = 1000.0
  val Weight: PowerWeight = PowerWeight(2)
  val Total: Long = 1000L

  val Man = "Manhattan"
  val Queens = "Queens"
  val SI = "S. Island"
  val Bronx = "Bronx"
  val Brooklyn = "Brooklyn"

  /** Original (raw) borough value of each record r1..r7, per Fig. 3a. */
  val OrigValues: Map[Long, String] = Map(
    1L -> SI, 2L -> Man, 3L -> Man, 4L -> Queens, 5L -> Queens, 6L -> Queens, 7L -> Queens,
  )

  /** Fig. 3c: (r1, r2, v1, v2, D). Weights are recomputed from D — the test
    * checks they match the paper's printed W column.
    */
  val MatrixRows: Seq[(Long, Long, String, String, Double)] = Seq(
    (1L, 2L, SI, Man, 200.0), (1L, 3L, SI, Man, 500.0),
    (1L, 4L, SI, Queens, 800.0), (1L, 5L, SI, Queens, 800.0), (1L, 6L, SI, Queens, 800.0),
    (2L, 1L, Man, SI, 200.0), (2L, 3L, Man, Man, 600.0), (2L, 4L, Man, Queens, 900.0),
    (3L, 1L, Man, SI, 500.0), (3L, 2L, Man, Man, 600.0),
    (4L, 1L, Queens, SI, 800.0), (4L, 2L, Queens, Man, 900.0), (4L, 5L, Queens, Queens, 600.0),
    (5L, 1L, Queens, SI, 800.0), (5L, 4L, Queens, Queens, 600.0),
    (5L, 6L, Queens, Queens, 600.0), (5L, 7L, Queens, Queens, 900.0),
    (6L, 1L, Queens, SI, 800.0), (6L, 5L, Queens, Queens, 600.0),
    (7L, 5L, Queens, Queens, 900.0),
  )

  /** Fig. 3b value-frequency table for the full 1,000-record dataset. */
  val ValueFreq: Seq[(String, Long)] = Seq(
    Bronx -> 100L, Brooklyn -> 200L, Man -> 300L, Queens -> 300L, SI -> 100L,
  )

  /** Fig. 3b as a [[ValueStats]] for Phase 2. */
  val Stats: ValueStats = ValueStats(ValueFreq.toMap, Total)

  /** Each record's cell: [[Sparcle.decide]] on the histogram of its Fig. 3c
    * rows, weighted by W, with Fig. 3b's statistics.
    */
  val Cells: Map[Long, Cell] = OrigValues.map { case (id, v) =>
    val hist = Histogram(v, MatrixRows.collect { case (`id`, _, _, v2, dist) => (v2, Weight.weight(dist, D)) })
    id -> Sparcle.decide(id, hist, Stats, CandGenParams(), Sparcle.DefaultMargin)
  }
}
