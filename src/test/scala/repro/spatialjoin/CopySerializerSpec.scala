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

  test("copies written by several map tasks reach the loop in (cx, cy, id) order") {
    // Every copy sits at one location, so the loop pairs each probe with all
    // other copies of its cell; a copy's value names its cell.
    val cells = Seq((Long.MinValue, Long.MaxValue), (Long.MinValue, 0L), (-1L, -1L), (0L, Long.MinValue),
                    (0L, 0L), (3L, -2L), (Long.MaxValue, Long.MinValue), (Long.MaxValue, Long.MaxValue))
    val ids = Seq(Long.MinValue, -7L, 0L, 5L, 9L, Long.MaxValue)
    val copies = for ((cell @ (cx, cy), i) <- cells.zipWithIndex; (id, j) <- ids.zipWithIndex if (i + j) % 5 != 0)
      yield cell -> Copy(id, 1.5, -2.5, s"$cx,$cy", probe = (i * j) % 3 != 1)
    // A hotspot cell of several hundred copies, which the shuffle below
    // spreads over all the map tasks.
    val hot = (2L, 2L)
    val hotspot = (Seq(Long.MinValue, Long.MaxValue) ++ (0 until 400).map(k => k * 7919L - 1000000L)).zipWithIndex
      .map { case (id, k) => hot -> Copy(id, 1.5, -2.5, "2,2", probe = k % 3 != 1) }
    val all = copies ++ hotspot
    val shuffled = new scala.util.Random(3).shuffle(all)
    val input = spark.sparkContext.parallelize(shuffled, 6)
    assert(input.glom().collect().count(_.exists(_._1 == hot)) == 6, "the hotspot spans every map task")
    val seen = RangeJoin.reduce(RangeJoin.shuffle(input, _ == 0.0)) {
      (a, bs) => Some((a.value, a.id, bs.map(_._1.id).toList))
    }.glom().collect()
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
}
