package org.apache.spark.sql

import org.apache.spark.SparkContext

/** The two package-private Spark members the benchmark reads. This shim
  * lives in Spark's package so it may call them.
  */
object SparkInternals {

  /** Wait until every listener has seen every event posted so far, so job
    * and task counts are complete right after an action returns.
    */
  def drainListeners(sc: SparkContext, timeoutMs: Long = 30000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)

  /** Number of frames in the SQL cache manager. */
  def cachedFrames(spark: SparkSession): Int =
    spark.asInstanceOf[classic.SparkSession].sharedState.cacheManager.numCachedEntries
}
