package repro.data

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.geo._

/** One spatially-dependent attribute of a synthetic dataset.
  *
  * @param name         column name (e.g. "zipcode")
  * @param map          ground-truth region map (never shown to cleaners)
  * @param errors       number of cells to corrupt
  * @param dupRatio     share of the erroneous cells that must sit on records
  *                     at duplicated locations (Table 3's "Dup." column)
  * @param missingShare share of corruptions that blank the value (vs writing
  *                     a wrong region label)
  */
final case class AttrSpec(name: String, map: RegionMap, errors: Int,
                          dupRatio: Double, missingShare: Double) {
  require(errors >= 0 && dupRatio >= 0 && dupRatio <= 1 && missingShare >= 0 && missingShare <= 1,
    s"bad attr spec $this")
}

/** A synthetic spatial dataset specification.
  *
  * @param dupShare share of records whose location exactly duplicates an
  *                 earlier record's location (the pool dup-located errors are
  *                 drawn from; must be large enough for every attr's
  *                 `errors × dupRatio`)
  */
final case class DatasetSpec(name: String, extent: Extent, nRecords: Int,
                             dupShare: Double, attrs: Seq[AttrSpec], seed: Long) {
  require(nRecords > 1, s"need records: $this")
  val nDup: Int = (nRecords * dupShare).toInt
  attrs.foreach { a =>
    require((a.errors * a.dupRatio).round <= nDup,
      s"${a.name}: needs ${(a.errors * a.dupRatio).round} dup-located errors but only $nDup dup records")
    require(a.errors <= nRecords, s"${a.name}: more errors than records")
  }
}

/** A generated dataset: dirty records, ground truth, and metadata. */
final case class SpatialDataset(
    name: String,
    records: DataFrame,    // id, x, y, <attr columns> (dirty, nullable)
    truth: DataFrame,      // id, <attr columns> (clean)
    attrs: Seq[String],
    extent: Extent,
) {
  /** Points-contract view for one dependent attribute. */
  def points(attr: String): DataFrame =
    records.select(col("id"), col("x"), col("y"), col(attr).as("value"))

  /** Ground-truth view for one dependent attribute: `id, value`. */
  def truthFor(attr: String): DataFrame =
    truth.select(col("id"), col(attr).as("value"))
}

/** Deterministic driver-side generator for the paper's dataset stand-ins.
  *
  * Construction: `nRecords·(1 − dupShare)` records at unique uniform
  * locations, then `nRecords·dupShare` records each copying the exact
  * location of a random unique record (these model the real data's exact
  * location duplicates). Ground truth of every attribute is the region-map
  * label of the record location. Corruption picks, per attribute, the right
  * mix of dup-located and unique-located records and either blanks the value
  * or replaces it with a uniformly random *other* label — duplicated-location
  * partners stay correct, so exact-equality cleaners can learn from them,
  * exactly the regime split of Table 1.
  *
  * Generation is driver-side (all stand-ins are ≤ 40K rows after scaling —
  * see DESIGN.md §3) so error counts and duplication ratios are exact and
  * deterministic in the seed.
  */
object SpatialSynth {

  /** Average number of duplicate copies per duplicated location. Real
    * spatial data duplicates cluster on hotspots (busy intersections, common
    * building addresses), so a duplicated location typically hosts several
    * records — the majority-vote evidence that lets exact-equality cleaners
    * repair duplicated errors with high precision (Table 1).
    */
  val HotspotFanout: Int = 4

  def generate(spec: DatasetSpec)(implicit spark: SparkSession): SpatialDataset = {
    val rng = new Random(spec.seed)
    val n = spec.nRecords
    val nDup = spec.nDup
    val nUnique = n - nDup

    // Locations: unique first, then exact duplicates of random unique ones.
    val xs = new Array[Double](n)
    val ys = new Array[Double](n)
    var i = 0
    while (i < nUnique) {
      val (x, y) = spec.extent.sample(rng); xs(i) = x; ys(i) = y; i += 1
    }
    val nHot = math.max(1, nDup / HotspotFanout)
    val hotspots = rng.shuffle((0 until nUnique).toVector).take(math.min(nHot, nUnique))
    while (i < n) {
      val src = hotspots(rng.nextInt(hotspots.size))
      xs(i) = xs(src); ys(i) = ys(src); i += 1
    }

    // Ground truth per attribute.
    val truthVals: Array[Array[String]] = spec.attrs.toArray.map { a =>
      val arr = new Array[String](n)
      var j = 0
      while (j < n) { arr(j) = a.map.regionOf(xs(j), ys(j)); j += 1 }
      arr
    }

    // Dirty copies with injected errors.
    val dirtyVals: Array[Array[String]] = truthVals.map(_.clone())
    // Unique-located error picks must avoid the hotspot source records,
    // which are themselves duplicated — keeps the measured dup ratio exact.
    val hotspotSet: Set[Int] = if (nDup > 0) hotspots.toSet else Set.empty
    val trulyUnique = (0 until nUnique).filterNot(hotspotSet).toVector
    spec.attrs.zipWithIndex.foreach { case (a, ai) =>
      val rngA = new Random(spec.seed * 31 + a.name.hashCode)
      val dupErr = math.round(a.errors * a.dupRatio).toInt
      val uniqueErr = a.errors - dupErr
      require(uniqueErr <= trulyUnique.size,
        s"${a.name}: $uniqueErr unique-located errors but only ${trulyUnique.size} unique records")
      val dupPicks = rngA.shuffle((nUnique until n).toVector).take(dupErr)
      val uniquePicks = rngA.shuffle(trulyUnique).take(uniqueErr)
      val labels = a.map.labels
      (dupPicks ++ uniquePicks).foreach { idx =>
        if (rngA.nextDouble() < a.missingShare) dirtyVals(ai)(idx) = null
        else {
          val t = truthVals(ai)(idx)
          var wrong = labels(rngA.nextInt(labels.size))
          while (wrong == t) wrong = labels(rngA.nextInt(labels.size))
          dirtyVals(ai)(idx) = wrong
        }
      }
    }

    val attrFields = spec.attrs.map(a => StructField(a.name, StringType, nullable = true))
    val recSchema = StructType(
      Seq(StructField("id", LongType, nullable = false),
          StructField("x", DoubleType, nullable = false),
          StructField("y", DoubleType, nullable = false)) ++ attrFields)
    val truthSchema = StructType(StructField("id", LongType, nullable = false) +: attrFields)

    val recRows = new ArrayBuffer[Row](n)
    val truthRows = new ArrayBuffer[Row](n)
    var j = 0
    while (j < n) {
      recRows += Row.fromSeq(Seq[Any](j.toLong, xs(j), ys(j)) ++ spec.attrs.indices.map(ai => dirtyVals(ai)(j)))
      truthRows += Row.fromSeq(Seq[Any](j.toLong) ++ spec.attrs.indices.map(ai => truthVals(ai)(j)))
      j += 1
    }
    val records = spark.createDataFrame(spark.sparkContext.parallelize(recRows.toSeq, 16), recSchema)
    val truth = spark.createDataFrame(spark.sparkContext.parallelize(truthRows.toSeq, 16), truthSchema)
    SpatialDataset(spec.name, records, truth, spec.attrs.map(_.name), spec.extent)
  }
}

/** The four experiment datasets of Table 3, scaled per DESIGN.md §5.
  * `scale` multiplies record and error counts (1.0 = the scaled defaults).
  */
object Datasets {
  import CityExtents._

  val NycBoroughs: Seq[String] =
    Seq("Manhattan", "Brooklyn", "Queens", "Bronx", "Staten Island")

  private def sc(v: Int, scale: Double): Int = math.max(1, math.round(v * scale).toInt)

  /** Austin-Code stand-in: 8K records, zipcode (50) + city (9, ~78%
    * "Austin"), all errors wrong values at non-duplicated locations (paper
    * dup ratio 0.00).
    */
  def austinCode(scale: Double = 1.0)(implicit spark: SparkSession): SpatialDataset = {
    val n = sc(8000, scale)
    val zip = RegionMap.voronoi(Austin, 50, "787", seed = 101)
    val city = RegionMap.dominant(Austin, 9, "Austin", "suburb", dominantShare = 0.78, seed = 102)
    SpatialSynth.generate(DatasetSpec(
      "Austin-Code", Austin, n, dupShare = 0.0,
      attrs = Seq(
        AttrSpec("zipcode", zip, errors = sc(1196, scale), dupRatio = 0.0, missingShare = 0.0),
        AttrSpec("city", city, errors = sc(1047, scale), dupRatio = 0.0, missingShare = 0.0),
      ),
      seed = 11,
    ))
  }

  /** Chicago-Building stand-in: 24K records; community (77), census (250,
    * scaled from the paper's 980 to keep ≥90 records/value), ward (50);
    * dup ratios 0.64/0.64/0.58; 30% of corruptions are missing values.
    */
  def chicagoBuilding(scale: Double = 1.0)(implicit spark: SparkSession): SpatialDataset = {
    val n = sc(24000, scale)
    SpatialSynth.generate(DatasetSpec(
      "Chicago-Building", Chicago, n, dupShare = 0.2,
      attrs = Seq(
        AttrSpec("community", RegionMap.voronoi(Chicago, 77, "comm", 201),
                 errors = sc(3452, scale), dupRatio = 0.64, missingShare = 0.3),
        AttrSpec("census", RegionMap.voronoi(Chicago, 250, "tract", 202),
                 errors = sc(4558, scale), dupRatio = 0.64, missingShare = 0.3),
        AttrSpec("ward", RegionMap.voronoi(Chicago, 50, "ward", 203),
                 errors = sc(5941, scale), dupRatio = 0.58, missingShare = 0.3),
      ),
      seed = 21,
    ))
  }

  /** NYC-Crash stand-in: 40K records; borough (5 real names, 99.5% of its
    * errors missing — as in the real data, 418,896 of 421,013), zipcode
    * (230); dup ratios 0.44/0.30.
    */
  def nycCrash(scale: Double = 1.0)(implicit spark: SparkSession): SpatialDataset = {
    val n = sc(40000, scale)
    SpatialSynth.generate(DatasetSpec(
      "NYC-Crash", Nyc, n, dupShare = 0.15,
      attrs = Seq(
        AttrSpec("borough", RegionMap.voronoiLabeled(Nyc, NycBoroughs, 301),
                 errors = sc(9614, scale), dupRatio = 0.44, missingShare = 0.995),
        AttrSpec("zipcode", RegionMap.voronoi(Nyc, 230, "11", 302),
                 errors = sc(12070, scale), dupRatio = 0.30, missingShare = 0.5),
      ),
      seed = 31,
    ))
  }

  /** Chicago-Synthetic at the paper's exact scale: 20K records, 2K errors
    * per dependency, no duplicate locations; district 23 / ward 50 /
    * zipcode 59 / beat 275 / census 801 distinct values (Table 3 / Fig. 7).
    */
  def chicagoSynthetic(nRecords: Int = 20000, errors: Int = 2000, dupShare: Double = 0.0,
                       errDupRatio: Double = 0.0, seed: Long = 41)
                      (implicit spark: SparkSession): SpatialDataset = {
    val mk = Seq(
      ("district", 23), ("ward", 50), ("zipcode", 59), ("beat", 275), ("census", 801),
    )
    SpatialSynth.generate(DatasetSpec(
      "Chicago-Synthetic", Chicago, nRecords, dupShare,
      attrs = mk.zipWithIndex.map { case ((nm, k), i) =>
        AttrSpec(nm, RegionMap.voronoi(Chicago, k, nm, 400 + i),
                 errors = errors, dupRatio = errDupRatio, missingShare = 0.3)
      },
      seed = seed,
    ))
  }
}
