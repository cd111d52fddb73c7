package repro.spatialjoin

/** A point's copy in grid cell `(cx, cy)`, as a test writes it. */
final case class TestCopy(cx: Long, cy: Long, id: Long, x: Double, y: Double, value: String, probe: Boolean)

/** Blocks of hand-written copies, made by the join's own map side. */
object TestBlocks {

  /** One map task's blocks of `copies` for `reducers` reduce partitions, as
    * [[Buckets]] makes them, with `tally`, which counts every value of
    * `copies`; its values are the task's dictionary.
    */
  def blocks(copies: Iterable[TestCopy], tally: Tally, reducers: Int): Iterator[(Int, Block)] = {
    val names = tally.counts.keys.toArray
    val out = new Buckets(reducers)
    copies.foreach(c => out.add(c.cx, c.cy, c.id, c.x, c.y, names.indexOf(c.value), c.probe))
    out.blocks(names, tally)
  }

  /** `copies` as one block, with `tally`. */
  def block(copies: Iterable[TestCopy], tally: Tally): Block = blocks(copies, tally, 1).next()._2

  /** The tally of map task `part` whose rows are `copies`' points. */
  def tallyOf(part: Int, copies: Iterable[TestCopy]): Tally = {
    val points = copies.map(c => (c.id, c.x, c.y, c.value)).toSeq.distinct
    Tally(part, points.size, points.map(_._2).minOption.getOrElse(Double.PositiveInfinity),
          points.map(_._2).maxOption.getOrElse(Double.NegativeInfinity),
          points.map(_._3).minOption.getOrElse(Double.PositiveInfinity),
          points.map(_._3).maxOption.getOrElse(Double.NegativeInfinity),
          points.flatMap(p => Option(p._4)).groupBy(identity).map { case (v, vs) => v -> vs.size.toLong }, null)
  }

  /** The copies of `blocks`, column by column, with the value of each. */
  def copiesOf(b: Block): Seq[TestCopy] =
    b.id.indices.map(i => TestCopy(b.cx(i), b.cy(i), b.id(i), b.x(i), b.y(i),
                                   if (b.code(i) < 0) null else b.names(b.code(i)), b.probe(i)))
}
