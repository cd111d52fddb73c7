package repro.spatialjoin

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}

import org.apache.spark.ShuffleDependency

import repro.{SparkSpec, TestPoints}

/** The join's shuffle record, a [[Block]]: it reads back bit for bit through
  * the job's serializer, and the blocks of several map tasks reach each
  * reduce task's loop in order, with their tallies merged.
  */
class BlockSpec extends SparkSpec {

  private val extremes = Seq(Long.MinValue, Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue - 1, Long.MaxValue)
  private val coords = Seq(0.0, -0.0, Double.MinPositiveValue, -Double.MinPositiveValue,
                           java.lang.Double.MIN_NORMAL / 3, -1e300, 6.02e23, math.nextUp(1.0))
  private val values = Seq(null, "", "a", "Zürich", "東京都", "Bronx 🗽", "tab\tand\nnewline", "x" * 70000)

  /** Copies covering every extreme above at least once. */
  private val records: Seq[TestCopy] =
    (for ((k, i) <- extremes.zipWithIndex; (c, j) <- coords.zipWithIndex)
      yield TestCopy(k, extremes((i + j) % extremes.size), extremes((i + 2 * j) % extremes.size), c,
                     coords((i + j + 3) % coords.size), values((i + j) % values.size), (i + j) % 2 == 0)) ++
    values.map(v => TestCopy(Long.MaxValue, Long.MinValue, Long.MinValue, -0.0, Double.MinPositiveValue, v, false))

  /** Tallies covering an empty one, every value above, `Long.MaxValue`
    * counts, and null and non-null messages.
    */
  private val tallies = Seq(
    Tally.merge(Nil),
    Tally(3, Long.MaxValue, -1e300, 6.02e23, -0.0, Double.MinPositiveValue,
          values.filter(_ != null).map(_ -> Long.MaxValue).toMap, "id 7: non-finite coordinates (NaN, 0.0)"),
    Tally(Int.MaxValue, 1L, 0.0, 0.0, -0.0, 0.0, Map("Zürich" -> 1L, "x" * 70000 -> Long.MaxValue, "東京都" -> 0L),
          "null id (x=3.0, y=4.0) in 東京都"))

  private def tallyBits(t: Tally) =
    (t.part, t.records, Seq(t.x0, t.x1, t.y0, t.y1).map(java.lang.Double.doubleToRawLongBits), t.counts, t.bad)

  /** Bit patterns, so that −0.0 and 0.0 differ. */
  private def bits(c: TestCopy) =
    (c.cx, c.cy, c.id, java.lang.Double.doubleToRawLongBits(c.x), java.lang.Double.doubleToRawLongBits(c.y),
     c.value, c.probe)

  private def blockBits(b: Block) = (TestBlocks.copiesOf(b).map(bits), b.names.toSeq, tallyBits(b.tally))

  /** The serializer of the join's shuffle. */
  private def serializer = RangeJoin.cells(TestPoints.df(spark, Seq((1L, 0.0, 0.0, "a"))), 1.0).blocks.dependencies
    .collectFirst { case s: ShuffleDependency[_, _, _] => s.serializer.newInstance() }.get

  /** [[records]] in 3 blocks, each with the tally of its copies. */
  private val blocks: Seq[(Int, Block)] =
    records.grouped(records.size / 3 + 1).zipWithIndex.map { case (cs, i) =>
      Seq(0, 7, Int.MaxValue)(i) -> TestBlocks.block(cs, TestBlocks.tallyOf(i, cs))
    }.toSeq

  test("blocks of extreme copies read back bit for bit as Spark's shuffle writes them: key, then value") {
    val ser = serializer
    val bytes = new ByteArrayOutputStream
    val out = ser.serializeStream(bytes)
    blocks.foreach { case (to, b) => out.writeKey(to).writeValue(b) }
    out.close()
    val back = ser.deserializeStream(new ByteArrayInputStream(bytes.toByteArray)).asKeyValueIterator
      .map { case (to, b) => (to.asInstanceOf[Int], b.asInstanceOf[Block]) }.toSeq
    assert(back.map(_._1) == blocks.map(_._1))
    assert(back.map(r => blockBits(r._2)) == blocks.map(r => blockBits(r._2)))
    assert(back.flatMap(r => TestBlocks.copiesOf(r._2)).map(bits) == records.map(bits))
    assert(back.flatMap(r => TestBlocks.copiesOf(r._2)).count(_.value == null) == records.count(_.value == null))
  }

  test("a whole (reduce partition, block) record round-trips through serialize and deserialize") {
    val ser = serializer
    for ((to, b) <- blocks) {
      val (toBack, back) = ser.deserialize[(Int, Block)](ser.serialize((to, b)))
      assert(toBack == to)
      assert(blockBits(back) == blockBits(b))
    }
  }

  test("a block's tally reads back bit for bit, keyed by the reduce partition it goes to") {
    val ser = serializer
    val bytes = new ByteArrayOutputStream
    val out = ser.serializeStream(bytes)
    val sent = tallies.zip(Seq(0, 7, Int.MaxValue)).map { case (t, to) =>
      to -> TestBlocks.block(records.filter(c => c.value == null || t.counts.contains(c.value)), t)
    }
    sent.foreach { case (to, b) => out.writeKey(to).writeValue(b) }
    out.close()
    val back = ser.deserializeStream(new ByteArrayInputStream(bytes.toByteArray)).asKeyValueIterator.toSeq
    assert(back.size == sent.size)
    for (((to, b), (toBack, bBack)) <- sent.zip(back)) {
      assert(toBack == to)
      assert(blockBits(bBack.asInstanceOf[Block]) == blockBits(b))
    }
    for ((to, b) <- sent) {
      val (toBack, back) = ser.deserialize[(Int, Block)](ser.serialize((to, b)))
      assert(toBack == to)
      assert(tallyBits(back.tally) == tallyBits(b.tally))
    }
  }

  test("the map side's blocks hold each value once in their dictionary, and each copy in its cell's partition") {
    val pts = TestPoints.random(n = 400, extent = 3000, nValues = 6, seed = 17, nullEvery = 5)
    val reducers = spark.sparkContext.defaultParallelism
    val maps = math.min(3, reducers)
    val df = spark.createDataFrame(spark.sparkContext.parallelize(pts, maps)).toDF("id", "x", "y", "value")
    val sent = RangeJoin.cells(df, 150).blocks.mapPartitionsWithIndex((to, bs) => bs.map(to -> _)).collect()
    assert(sent.length == maps * reducers)
    for ((to, (key, b)) <- sent) {
      assert(key == to)
      assert(b.names.distinct.sameElements(b.names), b.names.toSeq)
      assert(b.names.toSet == b.tally.counts.keySet)
      assert(TestBlocks.copiesOf(b).forall(c => RangeJoin.partition(c.cx, c.cy, reducers) == to))
    }
    assert(sent.map(_._2._2.tally).distinct.length == maps)
  }

  private val hot = (2L, 2L)

  /** Copies at one location per cell, so the loop pairs each probe with all
    * other copies of its cell; a copy's value names its cell. They include a
    * hotspot cell of several hundred copies, which the shuffles below spread
    * over all the map tasks.
    */
  private val loopCopies: Seq[TestCopy] = {
    val cells = Seq((Long.MinValue, Long.MaxValue), (Long.MinValue, 0L), (-1L, -1L), (0L, Long.MinValue),
                    (0L, 0L), (3L, -2L), (Long.MaxValue, Long.MinValue), (Long.MaxValue, Long.MaxValue))
    val ids = Seq(Long.MinValue, -7L, 0L, 5L, 9L, Long.MaxValue)
    val copies = for (((cx, cy), i) <- cells.zipWithIndex; (id, j) <- ids.zipWithIndex if (i + j) % 5 != 0)
      yield TestCopy(cx, cy, id, 1.5, -2.5, s"$cx,$cy", probe = (i * j) % 3 != 1)
    val hotspot = (Seq(Long.MinValue, Long.MaxValue) ++ (0 until 400).map(k => k * 7919L - 1000000L)).zipWithIndex
      .map { case (id, k) => TestCopy(hot._1, hot._2, id, 1.5, -2.5, "2,2", probe = k % 3 != 1) }
    copies ++ hotspot
  }

  /** The copies of [[loopCopies]], shuffled, in 6 map tasks. */
  private def loopInput = {
    val input = spark.sparkContext.parallelize(new scala.util.Random(3).shuffle(loopCopies), 6)
    assert(input.glom().collect().count(_.exists(c => (c.cx, c.cy) == hot)) == 6, "the hotspot spans every map task")
    input
  }

  /** Each reduce task's probes as the loop sees them, with their neighbours'
    * ids, are in `(cx, cy, id)` order and are those of [[loopCopies]].
    */
  private def assertLoopOrder(seen: Array[Array[(String, Long, List[Long])]]): Unit = {
    val all = loopCopies
    assert(seen.map(_.length).sum == all.count(_.probe))
    def cellOf(v: String) = { val Array(cx, cy) = v.split(","); (cx.toLong, cy.toLong) }
    for (part <- seen) {
      val keys = part.toSeq.map { case (v, id, _) => (cellOf(v), id) }
      assert(keys == keys.sorted, "probes in (cx, cy, id) order")
    }
    for ((v, id, nbs) <- seen.flatten) {
      val cell = cellOf(v)
      assert(nbs == all.collect { case b if (b.cx, b.cy) == cell && b.id != id => b.id }.sorted, s"neighbours of $id")
    }
  }

  /** Each map task's blocks of its copies, with `tallyOf` its tally. */
  private def shuffled(tallyOf: (Int, Seq[TestCopy]) => Tally): Cells = {
    val reducers = spark.sparkContext.defaultParallelism
    RangeJoin.shuffle(loopInput.mapPartitionsWithIndex { (i, copies) =>
      val cs = copies.toSeq
      TestBlocks.blocks(cs, tallyOf(i, cs), reducers)
    }, _ == 0.0)
  }

  test("copies written by several map tasks reach the loop in (cx, cy, id) order") {
    val seen = RangeJoin.reduceTasks(shuffled(TestBlocks.tallyOf), _ => 1.0)(_.probes.map {
      a => (a.value, a.id, List.tabulate(a.size)(a.nbId))
    }).glom().collect()
    assertLoopOrder(seen)
  }

  test("tallies from several map tasks leave the loop's order, and each reduce task merges them all") {
    // Each map task's tally also counts the values of its copies, which its
    // blocks' dictionary lists.
    val sent = (0 until 6).map(i => Tally(i, i + 1L, -i.toDouble, i.toDouble, 0.0, 2.0 * i,
                                          Map(s"v$i" -> i.toLong, "shared" -> Long.MaxValue / 8),
                                          if (i >= 3) s"bad $i" else null))
    val counted = sent.map { t =>
      t.copy(counts = t.counts ++ loopCopies.map(_.value).distinct.map(_ -> 1L))
    }
    val reducers = spark.sparkContext.defaultParallelism
    val reduced = RangeJoin.reduceTasks(shuffled((i, _) => counted(i)), _ => 1.0) { probes =>
      Iterator(probes.tally -> probes.probes.map(a => (a.value, a.id, List.tabulate(a.size)(a.nbId))).toArray)
    }.collect()
    assert(reduced.length == reducers)
    for ((t, _) <- reduced) {
      assert(t == Tally.merge(counted))
      assert(t.records == 21 && t.bad == "bad 3" && t.counts("shared") == 6 * (Long.MaxValue / 8), t)
      assert((t.x0, t.x1, t.y0, t.y1) == ((-5.0, 5.0, 0.0, 10.0)), t)
    }
    assertLoopOrder(reduced.map(_._2))
  }
}
