package repro.pipebench

import org.apache.spark.sql.SparkSession

import repro.core.{PowerWeight, SpatialRange}
import repro.data.{Datasets, SpatialSynth}
import repro.eval.{Metrics, Runner}

/** Self-tests of the benchmark's own machinery. Prints one line per check and
  * exits non-zero if any fails.
  *
  *     python3 pipebench/run.py --self-test
  */
object SelfTest {

  private var failures = 0

  private def check(name: String)(ok: => Boolean): Unit = {
    val passed = try ok catch { case e: Throwable => println(s"  threw $e"); false }
    if (!passed) failures += 1
    println(s"${if (passed) "ok  " else "FAIL"} $name")
  }

  def main(args: Array[String]): Unit = {
    check("median of odd, even and unsorted inputs") {
      Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0 &&
      Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5 &&
      Stats.median(Seq(7.0)) == 7.0
    }

    check("idle time is span time no task covered") {
      // covered: [10,30) and [50,60) and [90,100) = 40 of 100 ms
      Stats.idleMs(0, 100, Seq((10L, 20L), (15L, 30L), (50L, 60L), (90L, 120L))) == 60 &&
      Stats.idleMs(0, 100, Nil) == 100 &&
      Stats.idleMs(0, 100, Seq((-5L, 200L))) == 0
    }

    check("self time subtracts the layers a layer calls") {
      val spans = Map("spatialjoin" -> 1.0, "core.dm" -> 3.0, "core.detector" -> 1.0,
        "core.candgen" -> 2.0, "core.formulator" -> 0.5, "core.corrector" -> 0.5,
        "cleaning.holoclean" -> 10.0)
      val self = Stats.selfTimes(spans, Trace.Children)
      self("core.dm") == 2.0 && self("spatialjoin") == 1.0 &&
      self("cleaning.holoclean") == 3.0 && math.abs(self.values.sum - 10.0) < 1e-12
    }

    check("grid comparisons count n_cell × n_3x3") {
      // two points in one cell, one in the next cell, one far away
      val xy = Seq((0.5, 0.5), (0.6, 0.6), (1.5, 0.5), (10.5, 10.5))
      Trace.gridComparisons(xy, 1.0) == 2 * 3 + 1 * 3 + 1 * 1 &&
      Trace.locationComparisons(Seq((0.0, 0.0), (0.0, 0.0), (1.0, 1.0))) == 4 + 1
    }

    implicit val spark: SparkSession = PipelineBench.session(2)
    spark.sparkContext.setLogLevel("WARN")
    val acct = new Accounting(spark)
    val sc = spark.sparkContext

    check("listener charges jobs and tasks to the job group that ran them") {
      val a = acct.run("a") {
        sc.parallelize(1 to 100, 4).count()
        spark.range(0, 100, 1, 3).collect()
      }.usage
      sc.parallelize(1 to 10, 5).count() // outside any group: charged to none
      val b = acct.run("b")(sc.parallelize(1 to 10, 2).count()).usage
      println(s"  a: ${a.jobs} jobs ${a.tasks.size} tasks; b: ${b.jobs} jobs ${b.tasks.size} tasks")
      a.jobs == 2 && a.tasks.size == 7 && b.jobs == 1 && b.tasks.size == 2
    }

    check("--seed 0 reproduces Datasets.nycCrash at the benchmark's scale") {
      val mine = SpatialSynth.generate(Workloads.nycCrash(0)).records.collect().toSeq
      val repo = Datasets.nycCrash(Workloads.Scale).records.collect().toSeq
      mine == repo
    }

    check("nyc-zipcode-range f1 at --seed 0 equals the Table 4 code path's Sparcle(n=2)") {
      val w = Workloads.byName("nyc-zipcode-range")
      val iso = new Isolation(spark)
      val in = PipelineBench.prepare(w, 0)
      val c = PipelineBench.call(w, in, acct, iso)
      val df = spark.createDataFrame(c.repairs.map(r => (r.id, r.oldValue, r.newValue)))
        .toDF("id", "oldValue", "newValue")
      val ours = Metrics.score(in.points, in.truth, df).f1
      val ds = Datasets.nycCrash(Workloads.Scale)
      val pts = ds.points("zipcode")
      val table4 = Metrics.score(pts, ds.truthFor("zipcode"),
        Runner.sparcleRepairs(ds, "zipcode", 700.0, n = 2)).f1
      println(s"  benchmark f1 $ours, Table 4 path f1 $table4, leaked ${c.leaked}")
      w.constraint == SpatialRange(700.0, PowerWeight(2)) && ours == table4 && c.problems.isEmpty
    }

    spark.stop()
    println(if (failures == 0) "all self-tests passed" else s"$failures self-test(s) failed")
    sys.exit(if (failures == 0) 0 else 1)
  }
}
