package repro.spatialjoin

import java.io.{ByteArrayInputStream, ByteArrayOutputStream}

import repro.SparkSpec

class CopySerializerSpec extends SparkSpec {

  private val extremes = Seq(Long.MinValue, Long.MinValue + 1, -1L, 0L, 1L, Long.MaxValue - 1, Long.MaxValue)
  private val coords = Seq(0.0, -0.0, Double.MinPositiveValue, -Double.MinPositiveValue,
                           java.lang.Double.MIN_NORMAL / 3, -1e300, 6.02e23, math.nextUp(1.0))
  private val values = Seq(null, "", "a", "Zürich", "東京都", "Bronx 🗽", "tab\tand\nnewline", "x" * 70000)

  /** Records covering every extreme above at least once. */
  private val records: Seq[((Long, Long), Copy)] =
    (for ((k, i) <- extremes.zipWithIndex; (c, j) <- coords.zipWithIndex)
      yield (k, extremes((i + j) % extremes.size)) ->
        Copy(extremes((i + 2 * j) % extremes.size), c, coords((i + j + 3) % coords.size),
             values((i + j) % values.size), (i + j) % 2 == 0)) ++
    values.map(v => (Long.MaxValue, Long.MinValue) -> Copy(Long.MinValue, -0.0, Double.MinPositiveValue, v, false))

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
  private def bits(r: ((Long, Long), Copy)) = {
    val ((cx, cy), c) = r
    (cx, cy, c.id, java.lang.Double.doubleToRawLongBits(c.x), java.lang.Double.doubleToRawLongBits(c.y),
     c.value, c.probe)
  }

  test("copies read back bit for bit as Spark's shuffle writes them: key, then value") {
    val ser = CopySerializer.newInstance()
    val bytes = new ByteArrayOutputStream
    val out = ser.serializeStream(bytes)
    records.foreach { case (cell, copy) => out.writeKey(cell).writeValue(copy) }
    out.close()
    val back = ser.deserializeStream(new ByteArrayInputStream(bytes.toByteArray)).asKeyValueIterator
      .map { case (cell, copy) => (cell.asInstanceOf[(Long, Long)], copy.asInstanceOf[Copy]) }.toSeq
    assert(back.map(bits) == records.map(bits))
    // Equal values read from one stream are one shared string; null stays null.
    for ((v, copies) <- back.map(_._2).groupBy(_.value))
      if (v == null) assert(copies.forall(_.value == null))
      else assert(copies.forall(_.value eq copies.head.value), s"one string for ${v.take(20)}")
    assert(back.count(_._2.value == null) == records.count(_._2.value == null))
  }

  test("a whole record round-trips through serialize and deserialize") {
    val ser = CopySerializer.newInstance()
    for (r <- records)
      assert(bits(ser.deserialize[((Long, Long), Copy)](ser.serialize(r))) == bits(r))
  }

  test("tallies read back bit for bit among copies, keyed by the reduce partition they go to") {
    val ser = CopySerializer.newInstance()
    val bytes = new ByteArrayOutputStream
    val out = ser.serializeStream(bytes)
    val stream: Seq[(Any, JoinRecord)] =
      records.take(3) ++ Seq(0 -> tallies(0), 7 -> tallies(1)) ++ records.slice(3, 6) ++ Seq(Int.MaxValue -> tallies(2))
    stream.foreach { case (k, v) => out.writeKey(k).writeValue(v) }
    out.close()
    val back = ser.deserializeStream(new ByteArrayInputStream(bytes.toByteArray)).asKeyValueIterator.toSeq
    assert(back.size == stream.size)
    for (((k, v), (kb, vb)) <- stream.zip(back)) (v, vb) match {
      case (t: Tally, tb: Tally) =>
        assert(kb == k)
        assert(tallyBits(tb) == tallyBits(t))
      case (c: Copy, cb: Copy) =>
        assert(bits(kb.asInstanceOf[(Long, Long)] -> cb) == bits(k.asInstanceOf[(Long, Long)] -> c))
      case other => fail(s"read back $other")
    }
    for ((t, to) <- tallies.zipWithIndex) {
      val (k, v) = ser.deserialize[(Any, JoinRecord)](ser.serialize((to, t)))
      assert(k == to)
      assert(tallyBits(v.asInstanceOf[Tally]) == tallyBits(t))
    }
  }

  private val hot = (2L, 2L)

  /** Copies at one location per cell, so the loop pairs each probe with all
    * other copies of its cell; a copy's value names its cell. They include a
    * hotspot cell of several hundred copies, which the shuffles below spread
    * over all the map tasks.
    */
  private val loopCopies: Seq[((Long, Long), Copy)] = {
    val cells = Seq((Long.MinValue, Long.MaxValue), (Long.MinValue, 0L), (-1L, -1L), (0L, Long.MinValue),
                    (0L, 0L), (3L, -2L), (Long.MaxValue, Long.MinValue), (Long.MaxValue, Long.MaxValue))
    val ids = Seq(Long.MinValue, -7L, 0L, 5L, 9L, Long.MaxValue)
    val copies = for ((cell @ (cx, cy), i) <- cells.zipWithIndex; (id, j) <- ids.zipWithIndex if (i + j) % 5 != 0)
      yield cell -> Copy(id, 1.5, -2.5, s"$cx,$cy", probe = (i * j) % 3 != 1)
    val hotspot = (Seq(Long.MinValue, Long.MaxValue) ++ (0 until 400).map(k => k * 7919L - 1000000L)).zipWithIndex
      .map { case (id, k) => hot -> Copy(id, 1.5, -2.5, "2,2", probe = k % 3 != 1) }
    copies ++ hotspot
  }

  /** The copies of [[loopCopies]], shuffled, in 6 map tasks. */
  private def loopInput = {
    val input = spark.sparkContext.parallelize(new scala.util.Random(3).shuffle(loopCopies), 6)
    assert(input.glom().collect().count(_.exists(_._1 == hot)) == 6, "the hotspot spans every map task")
    input
  }

  /** Each reduce task's probes as the loop sees them, with their neighbours'
    * ids, are in `(cx, cy, id)` order and are those of [[loopCopies]].
    */
  private def assertLoopOrder(seen: Array[Array[(String, Long, List[Long])]]): Unit = {
    val all = loopCopies
    assert(seen.map(_.length).sum == all.count(_._2.probe))
    def cellOf(v: String) = { val Array(cx, cy) = v.split(","); (cx.toLong, cy.toLong) }
    for (part <- seen) {
      val keys = part.toSeq.map { case (v, id, _) => (cellOf(v), id) }
      assert(keys == keys.sorted, "probes in (cx, cy, id) order")
    }
    for ((v, id, nbs) <- seen.flatten) {
      val cell = cellOf(v)
      assert(nbs == all.collect { case (c, b) if c == cell && b.id != id => b.id }.sorted, s"neighbours of $id")
    }
  }

  test("copies written by several map tasks reach the loop in (cx, cy, id) order") {
    val seen = RangeJoin.reduceTasks(RangeJoin.shuffle(loopInput, _ == 0.0), _ => 1.0)(_.probes.map {
      a => (a.value, a.id, List.tabulate(a.size)(a.nbId))
    }).glom().collect()
    assertLoopOrder(seen)
  }

  test("tallies from several map tasks leave the loop's order, and each reduce task merges them all") {
    val sent = (0 until 6).map(i => Tally(i, i + 1L, -i.toDouble, i.toDouble, 0.0, 2.0 * i,
                                          Map(s"v$i" -> i.toLong, "shared" -> Long.MaxValue / 8),
                                          if (i >= 3) s"bad $i" else null))
    val reducers = spark.sparkContext.defaultParallelism
    // Each map task sends its tally to every reduce partition, before its
    // copies or after them.
    val input = loopInput.mapPartitionsWithIndex { (i, copies) =>
      val tallies = Iterator.tabulate(reducers)(to => (to, sent(i)))
      if (i % 2 == 0) tallies ++ copies else copies ++ tallies
    }
    val reduced = RangeJoin.reduceTasks(RangeJoin.shuffle(input, _ == 0.0), _ => 1.0) { probes =>
      Iterator(probes.tally -> probes.probes.map(a => (a.value, a.id, List.tabulate(a.size)(a.nbId))).toArray)
    }.collect()
    assert(reduced.length == reducers)
    for ((t, _) <- reduced) {
      assert(t == Tally.merge(sent))
      assert(t.records == 21 && t.bad == "bad 3" && t.counts("shared") == 6 * (Long.MaxValue / 8), t)
      assert((t.x0, t.x1, t.y0, t.y1) == ((-5.0, 5.0, 0.0, 10.0)), t)
    }
    assertLoopOrder(reduced.map(_._2))
  }
}
