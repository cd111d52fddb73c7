package repro.pipebench

import org.apache.spark.sql.{SparkInternals, SparkSession}

/** Keeps one `clean` call from seeing what an earlier call left cached.
  *
  * The benchmark's own inputs are local checkpoints, which Spark's SQL cache
  * manager does not track; so before every call the cache manager must be
  * empty, and after it every cache entry and every persisted RDD that was
  * not there before belongs to the call and is released.
  */
final class Isolation(spark: SparkSession) {
  private val sc = spark.sparkContext

  def persistedIds: Set[Int] = sc.getPersistentRDDs.keySet.toSet

  def cachedEntries: Int = SparkInternals.cachedFrames(spark)

  /** Persisted RDD ids once garbage is collected and Spark's cleaner has
    * dropped the persisted RDDs nothing references any more (the kNN join's
    * per-round checkpoints, for instance). Without this the count after a
    * call would depend on when the JVM last collected.
    */
  def settledIds(): Set[Int] = {
    System.gc()
    var prev = persistedIds
    var stable = 0
    var polls = 0
    while (stable < 3 && polls < 100) {
      Thread.sleep(20)
      val cur = persistedIds
      if (cur == prev) stable += 1 else { stable = 0; prev = cur }
      polls += 1
    }
    prev
  }

  /** Unpersist every RDD not in `before` and drop every SQL cache entry.
    * Returns the number of persisted RDDs released.
    */
  def releaseSince(before: Set[Int]): Int = {
    val leaked = settledIds() -- before
    spark.catalog.clearCache()
    val rdds = sc.getPersistentRDDs
    leaked.foreach(id => rdds.get(id).foreach(_.unpersist(blocking = true)))
    leaked.size
  }

  /** Run `f`, then release whatever it left persisted. */
  def scoped[A](f: => A): A = {
    val before = persistedIds
    try f finally releaseSince(before)
  }
}
