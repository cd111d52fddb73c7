package repro.spatialjoin

import java.lang.Double.{doubleToRawLongBits, longBitsToDouble}
import java.lang.management.ManagementFactory

import org.apache.spark.sql.functions._

import repro.{SparkSpec, TestPoints}
import repro.core.Histogram

/** The join loop of one reduce task ([[Scan]]): its distance, its value
  * codes and what it allocates.
  */
class ScanSpec extends SparkSpec {

  test("StrictMath.pow(v, 2) has the raw bits of v * v, on random bit patterns, subnormals and overflow") {
    val rng = new scala.util.Random(71)
    val random = Iterator.fill(2000000)(longBitsToDouble(rng.nextLong()))
    val subnormal = Iterator.fill(200000)(longBitsToDouble(rng.nextLong() & 0x800fffffffffffffL))
    val overflow = Iterator.fill(200000)((if (rng.nextBoolean()) -1 else 1) * math.sqrt(Double.MaxValue) *
                                           (1 + rng.nextDouble() * 1e6))
    val edges = Iterator(0.0, -0.0, Double.MinPositiveValue, -Double.MinPositiveValue, java.lang.Double.MIN_NORMAL,
                         math.sqrt(Double.MaxValue), math.nextUp(math.sqrt(Double.MaxValue)), Double.MaxValue,
                         Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN, 1.0, -1.0)
    var checked = 0
    for (v <- random ++ subnormal ++ overflow ++ edges) {
      assert(doubleToRawLongBits(StrictMath.pow(v, 2)) == doubleToRawLongBits(v * v), s"v = $v")
      checked += 1
    }
    assert(checked == 2400013)
  }

  test("the join's dist is Spark SQL's sqrt(pow(x1 - x2, 2) + pow(y1 - y2, 2)) bit for bit, at large coordinates too") {
    val d = 300.0
    val bases = Seq(0.0, -1.5e6, 4.2e9, -3.3e12, 7.7e14)
    val pts = bases.zipWithIndex.flatMap { case (base, b) =>
      TestPoints.random(n = 60, extent = 500, nValues = 3, seed = 90 + b)
        .map { case (id, x, y, v) => (b * 1000L + id, base + x, -base / 3 + y, v) }
    }
    val df = TestPoints.df(spark, pts)
    val joined = RangeJoin.pairs(df, d).as("p")
      .join(df.as("a"), col("p.r1") === col("a.id")).join(df.as("b"), col("p.r2") === col("b.id"))
      .select(col("p.r1"), col("p.r2"), col("p.dist"),
              expr("sqrt(pow(a.x - b.x, 2) + pow(a.y - b.y, 2))").as("sql"))
      .collect()
    val sqlPairs = df.as("a").crossJoin(df.as("b"))
      .where(col("a.id") =!= col("b.id") && expr("sqrt(pow(a.x - b.x, 2) + pow(a.y - b.y, 2))") < d).count()
    assert(joined.length == sqlPairs)
    assert(joined.length > 1000)
    for (r <- joined)
      assert(doubleToRawLongBits(r.getDouble(2)) == doubleToRawLongBits(r.getDouble(3)), s"${r.getLong(0)}, ${r.getLong(1)}")
  }

  private def copy(cell: (Long, Long), id: Long, value: String, probe: Boolean = true): (Any, JoinRecord) =
    cell -> Copy(id, id * 0.5, -id * 0.25, value, probe)

  test("values are coded by their index in the merged tally's sorted values, null as -1") {
    val tallies = Seq(Tally(0, 3, 0, 1, 0, 1, Map("zeta" -> 2L, "alpha" -> 1L), null),
                      Tally(1, 2, 0, 1, 0, 1, Map("mid" -> 1L, "alpha" -> 1L), null))
    val records = Seq(copy((1, 1), 4, "mid"), 0 -> tallies(0), copy((1, 1), 2, null), copy((0, 1), 3, "zeta"),
                      copy((1, 1), 9, "alpha", probe = false), 0 -> tallies(1), copy((0, 1), 1, "alpha"))
    val scan = new Scan(records.iterator, _ => true, _ => 1.0)
    assert(scan.names.toSeq == Seq("alpha", "mid", "zeta"))
    assert(scan.tally == Tally.merge(tallies))
    val seen = scan.probes.map(a => (a.id, a.code, a.value, List.tabulate(a.size)(i => (a.nbId(i), a.nbCode(i))))).toList
    assert(seen == List((1L, 0, "alpha", List((3L, 2))), (3L, 2, "zeta", List((1L, 0))),
                        (2L, -1, null, List((4L, 1), (9L, 0))), (4L, 1, "mid", List((2L, -1), (9L, 0)))))
  }

  test("a task of many read chunks gives each probe its cell's copies within d, in id order") {
    val rng = new scala.util.Random(5)
    val copies = (0 until 10000).map { i =>
      val c = (rng.nextInt(4) - 2L, rng.nextInt(4) - 2L)
      c -> Copy(rng.nextLong(), rng.nextDouble() * 10, rng.nextDouble() * 10, Seq("a", "b", null)(i % 3),
                rng.nextInt(3) == 0)
    }
    val scan = new Scan(copies.iterator, _ < 1.5, _ => 1.0)
    val seen = scan.probes.map(a => a.id -> List.tabulate(a.size)(a.nbId)).toMap
    val want = copies.groupBy(_._1).values.flatMap { run =>
      run.map(_._2).filter(_.probe).map(a => a.id -> run.map(_._2).filter { b =>
        b.id != a.id && math.sqrt(math.pow(a.x - b.x, 2) + math.pow(a.y - b.y, 2)) < 1.5
      }.map(_.id).sorted.toList)
    }.toMap
    assert(seen == want)
    assert(want.values.map(_.size).sum > 10000)
  }

  test("the loop allocates well under a byte per tested pair, and a few bytes per probe, on a co-location hotspot") {
    val m = 3000
    val values = Seq("a", "b", null, "c")
    val copies = (0 until m).map(i => (4L, -7L) -> Copy(i * 7919L - 50000, 12.5, -4.25, values(i % 4), probe = true))
    val counts = values.filter(_ != null).map(v => v -> copies.count(_._2.value == v).toLong).toMap
    val records: Seq[(Any, JoinRecord)] = copies :+ (0 -> Tally(0, m, 12.5, 12.5, -4.25, -4.25, counts, null))
    val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    /** The loop with the clean's histogram, over every probe, and the bytes
      * it allocates once the scan and the histogram are built.
      */
    def run(): (Long, Long, Double, Long) = {
      val scan = new Scan(records.iterator, _ < 10.0, dist => 1.0 - dist / 10.0)
      val hist = new Histogram(scan.names)
      val before = bean.getCurrentThreadAllocatedBytes
      var tested, probes = 0L
      var sum = 0.0
      while (scan.next()) {
        hist.reset(scan.code)
        var i = 0
        while (i < scan.size) {
          hist.add(scan.nbCode(i), scan.w(i))
          i += 1
        }
        sum += hist.nearW(0)
        probes += 1
        tested += scan.maxRun
      }
      (probes, tested, sum, bean.getCurrentThreadAllocatedBytes - before)
    }
    run()
    val (probes, tested, sum, allocated) = run()
    assert(probes == m)
    assert(tested == m.toLong * m)
    assert(sum > 0)
    info(s"$allocated bytes allocated for $probes probes and $tested tested pairs")
    assert(allocated < 4 * probes, s"$allocated bytes for $probes probes")
  }
}
