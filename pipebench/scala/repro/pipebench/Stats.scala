package repro.pipebench

/** Small numeric helpers shared by the benchmark and its self-tests. */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Milliseconds of `[start, end)` during which none of the `busy`
    * intervals was running.
    */
  def idleMs(start: Long, end: Long, busy: Seq[(Long, Long)]): Long = {
    var covered = 0L
    var reach = start
    busy.map { case (a, b) => (math.max(a, start), math.min(b, end)) }
      .filter { case (a, b) => a < b }
      .sortBy(_._1)
      .foreach { case (a, b) =>
        val from = math.max(a, reach)
        if (b > from) { covered += b - from; reach = b }
      }
    (end - start) - covered
  }

  /** Self time of each span: its duration minus the durations of its child
    * spans. Children here are separate calls, on the same materialized
    * input, to the layers the parent calls internally, so a parent's self
    * time is the part of its call not accounted to any child layer.
    */
  def selfTimes(spans: Map[String, Double], children: Map[String, Seq[String]]): Map[String, Double] =
    spans.map { case (layer, s) =>
      layer -> (s - children.getOrElse(layer, Nil).flatMap(spans.get).sum)
    }
}
