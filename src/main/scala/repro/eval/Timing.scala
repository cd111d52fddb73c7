package repro.eval

/** Wall-clock timing shared by the Table 6 builder and the jobs. */
object Timing {

  /** Run `f` and return its result with the seconds it took. Spark frames
    * are lazy: force them (collect, count) inside `f`.
    */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Seconds as `1m02.5s`. */
  def fmtTime(s: Double): String = {
    val m = (s / 60).toInt
    f"${m}m${s - m * 60}%04.1fs"
  }
}
