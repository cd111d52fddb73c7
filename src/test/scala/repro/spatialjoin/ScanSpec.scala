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

  private def copy(cell: (Long, Long), id: Long, value: String, probe: Boolean = true) =
    TestCopy(cell._1, cell._2, id, id * 0.5, -id * 0.25, value, probe)

  test("values are coded by their index in the merged tally's sorted values, null as -1") {
    val tallies = Seq(Tally(0, 3, 0, 1, 0, 1, Map("zeta" -> 2L, "alpha" -> 1L), null),
                      Tally(1, 2, 0, 1, 0, 1, Map("mid" -> 1L, "alpha" -> 1L), null))
    val blocks = Seq(TestBlocks.block(Seq(copy((1, 1), 2, null), copy((0, 1), 3, "zeta"),
                                          copy((1, 1), 9, "alpha", probe = false)), tallies(0)),
                     TestBlocks.block(Seq(copy((1, 1), 4, "mid"), copy((0, 1), 1, "alpha")), tallies(1)))
    val scan = new Scan(blocks.iterator, _ => true, _ => 1.0)
    assert(scan.names.toSeq == Seq("alpha", "mid", "zeta"))
    assert(scan.tally == Tally.merge(tallies))
    val seen = scan.probes.map(a => (a.id, a.code, a.value, List.tabulate(a.size)(i => (a.nbId(i), a.nbCode(i))))).toList
    assert(seen == List((1L, 0, "alpha", List((3L, 2))), (3L, 2, "zeta", List((1L, 0))),
                        (2L, -1, null, List((4L, 1), (9L, 0))), (4L, 1, "mid", List((2L, -1), (9L, 0)))))
  }

  test("a task of many blocks gives each probe its cell's copies within d, in id order") {
    val rng = new scala.util.Random(5)
    val copies = (0 until 10000).map { i =>
      TestCopy(rng.nextInt(4) - 2L, rng.nextInt(4) - 2L, rng.nextLong(), rng.nextDouble() * 10, rng.nextDouble() * 10,
               Seq("a", "b", null)(i % 3), rng.nextInt(3) == 0)
    }
    // Blocks of unequal sizes, one of them empty.
    val blocks = Seq(0, 1, 1, 2500, 4096, 7000, 10000).sliding(2).zipWithIndex.map { case (Seq(from, to), part) =>
      val cs = copies.slice(from, to)
      TestBlocks.block(cs, TestBlocks.tallyOf(part, cs))
    }.toSeq
    val scan = new Scan(blocks.iterator, _ < 1.5, _ => 1.0)
    val seen = scan.probes.map(a => a.id -> List.tabulate(a.size)(a.nbId)).toMap
    val want = copies.groupBy(c => (c.cx, c.cy)).values.flatMap { run =>
      run.filter(_.probe).map(a => a.id -> run.filter { b =>
        b.id != a.id && math.sqrt(math.pow(a.x - b.x, 2) + math.pow(a.y - b.y, 2)) < 1.5
      }.map(_.id).sorted.toList)
    }.toMap
    assert(seen == want)
    assert(want.values.map(_.size).sum > 10000)
  }

  test("building a scan from 4 blocks allocates no more than its columns, permutation and merge buffer") {
    val rng = new scala.util.Random(8)
    val values = (0 until 20).map(v => s"value $v") :+ null
    val blocks = (0 until 4).map { part =>
      val cs = (0 until 25000).map(i => TestCopy(rng.nextInt(8), rng.nextInt(8), part * 100000L + i,
                                                   rng.nextDouble(), rng.nextDouble(), values(rng.nextInt(21)),
                                                   rng.nextBoolean()))
      TestBlocks.block(cs, TestBlocks.tallyOf(part, cs))
    }
    val n = blocks.map(_.id.length).sum
    val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    def build(): (Scan, Long) = {
      val before = bean.getCurrentThreadAllocatedBytes
      val scan = new Scan(blocks.iterator, _ < 0.1, _ => 1.0)
      (scan, bean.getCurrentThreadAllocatedBytes - before)
    }
    build()
    val (scan, allocated) = build()
    val runs = scan.runStart.length - 1
    assert(scan.ids.length == n && runs == 64)
    // The concatenated columns (cx, cy, id, x, y: 8 bytes each; code 4;
    // probe 1), the permutation and its merge buffer (4 each), the ordered
    // columns (id, x, y, code, probe: 29), the two hit buffers (12 per copy
    // of the longest run), and the run starts' builder (at most 20 per run).
    val arrays = 45L * n + 8L * n + 29L * n + 12L * scan.maxRun + 20L * runs
    info(s"$allocated bytes allocated for $n copies; the arrays take $arrays")
    assert(allocated <= arrays + 64 * 1024, s"$allocated bytes for $n copies, arrays $arrays")
  }

  test("the loop allocates well under a byte per tested pair, and a few bytes per probe, on a co-location hotspot") {
    val m = 3000
    val values = Seq("a", "b", null, "c")
    val copies = (0 until m).map(i => TestCopy(4L, -7L, i * 7919L - 50000, 12.5, -4.25, values(i % 4), probe = true))
    val counts = values.filter(_ != null).map(v => v -> copies.count(_.value == v).toLong).toMap
    val block = TestBlocks.block(copies, Tally(0, m, 12.5, 12.5, -4.25, -4.25, counts, null))
    val bean = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    /** The loop with the clean's histogram, over every probe, and the bytes
      * it allocates once the scan and the histogram are built.
      */
    def run(): (Long, Long, Double, Long) = {
      val scan = new Scan(Iterator(block), _ < 10.0, dist => 1.0 - dist / 10.0)
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
