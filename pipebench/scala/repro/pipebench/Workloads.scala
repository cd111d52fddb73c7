package repro.pipebench

import org.apache.spark.sql.DataFrame

import repro.cleaning.HoloCleanLike
import repro.core._
import repro.data.{AttrSpec, Datasets, DatasetSpec}
import repro.geo.{CityExtents, RegionMap}
import repro.spatialjoin.RangeJoin

/** One benchmark workload: a dependency of a generated dataset and the
  * cleaning call the benchmark times on it.
  *
  * @param attr       dependent attribute cleaned
  * @param constraint spatial constraint of the pipeline under test
  * @param holoClean  time `HoloCleanLike.clean` instead of `Sparcle.clean`
  */
final case class Workload(name: String, attr: String, constraint: SpatialConstraint,
                          holoClean: Boolean) {

  def clean(points: DataFrame): SparcleResult =
    if (holoClean) HoloCleanLike.clean(points)
    else Sparcle.clean(points, SparcleParams(constraint))

  /** The spatial join behind this workload's DistanceMatrix. */
  def join(points: DataFrame): DataFrame = constraint match {
    case SpatialRange(d, _) => RangeJoin.pairs(points, d)
    case ExactLocation      => RangeJoin.exactPairs(points)
    case c                  => throw new IllegalArgumentException(s"no join for $c")
  }
}

object Workloads {

  /** Share of the repo's stand-in sizes (`Datasets.nycCrash(Scale)`). Every
    * run starts a fresh JVM whose first `clean` call is cold, so the
    * 40K-record stand-in (17–27 s a call) leaves no room for repeated calls
    * within one run; a quarter keeps ~9 neighbours per record at 700 m.
    */
  val Scale: Double = 0.25

  /** Seed of `Datasets.nycCrash`; `--seed 0` reproduces it exactly. */
  val NycSeed: Long = 31L

  private def sc(v: Int): Int = math.max(1, math.round(v * Scale).toInt)

  /** `Datasets.nycCrash(Scale)`'s specification with the record and error
    * sampling seed moved by `seed`. The ground-truth region maps stay fixed,
    * so other seeds are held-out samples of the same city.
    */
  def nycCrash(seed: Long): DatasetSpec = {
    import CityExtents.Nyc
    DatasetSpec(
      "NYC-Crash", Nyc, sc(40000), dupShare = 0.15,
      attrs = Seq(
        AttrSpec("borough", RegionMap.voronoiLabeled(Nyc, Datasets.NycBoroughs, 301),
                 errors = sc(9614), dupRatio = 0.44, missingShare = 0.995),
        AttrSpec("zipcode", RegionMap.voronoi(Nyc, 230, "11", 302),
                 errors = sc(12070), dupRatio = 0.30, missingShare = 0.5),
      ),
      seed = NycSeed + seed,
    )
  }

  // Why each workload: nyc-zipcode-range is the paper's headline and
  // Table 6 case (range join, the largest DistanceMatrix, candidate
  // generation dominant); nyc-borough-holoclean runs the same core layers
  // behind a tiny exact-location join, so it is scheduling-bound and a
  // range-join change should not move it while a cut in jobs should.
  val All: Seq[Workload] = Seq(
    Workload("nyc-zipcode-range", "zipcode", SpatialRange(700.0, PowerWeight(2)), holoClean = false),
    Workload("nyc-borough-holoclean", "borough", ExactLocation, holoClean = true),
  )

  def byName(name: String): Workload =
    All.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${All.map(_.name).mkString(", ")}"))
}
