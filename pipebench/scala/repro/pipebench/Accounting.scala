package repro.pipebench

import scala.collection.mutable

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{SparkInternals, SparkSession}

/** One finished task: its executor-slot interval (epoch ms) and the shuffle
  * bytes it wrote.
  */
final case class TaskRec(launchMs: Long, finishMs: Long, shuffleBytes: Long) {
  def durationMs: Long = finishMs - launchMs
}

/** What one job group ran: its job count and every task of its stages. */
final case class GroupUsage(jobs: Int, tasks: Seq[TaskRec]) {
  def taskS: Double = tasks.map(_.durationMs).sum / 1e3
  def shuffleMb: Double = tasks.map(_.shuffleBytes).sum / 1e6
  def busy: Seq[(Long, Long)] = tasks.map(t => (t.launchMs, t.finishMs))

  /** Slowest task ÷ median task, over all tasks of the group. */
  def taskSkew: Double =
    if (tasks.isEmpty) 0.0
    else {
      val d = tasks.map(_.durationMs.toDouble)
      d.max / math.max(Stats.median(d), 1.0)
    }
}

/** Attributes jobs and tasks to the job group that launched them.
  *
  * Spark copies the caller's `spark.jobGroup.id` local property into every
  * job it starts, including the stage jobs of adaptive execution; each
  * stage of such a job is mapped to the group, and tasks are charged
  * through their stage. Groups must not run concurrently.
  */
class GroupListener extends SparkListener {
  private val groupOfStage = mutable.Map[Int, String]()
  private val jobs = mutable.Map[String, Int]().withDefaultValue(0)
  private val tasks = mutable.Map[String, mutable.ArrayBuffer[TaskRec]]()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    Option(e.properties).flatMap(p => Option(p.getProperty(GroupListener.GroupKey))).foreach { g =>
      jobs(g) += 1
      e.stageIds.foreach(groupOfStage(_) = g)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    groupOfStage.get(e.stageId).foreach { g =>
      val m = e.taskMetrics
      val shuffle = if (m == null) 0L else m.shuffleWriteMetrics.bytesWritten
      tasks.getOrElseUpdate(g, mutable.ArrayBuffer()) +=
        TaskRec(e.taskInfo.launchTime, e.taskInfo.finishTime, shuffle)
    }
  }

  /** Usage of `group`, forgetting it afterwards. Call once the listener bus
    * is drained.
    */
  def take(group: String): GroupUsage = synchronized {
    val u = GroupUsage(jobs(group), tasks.get(group).map(_.toList).getOrElse(Nil))
    jobs -= group
    tasks -= group
    groupOfStage.filterInPlace((_, g) => g != group)
    u
  }
}

object GroupListener {
  val GroupKey = "spark.jobGroup.id"
}

/** The benchmark's view of one Spark session: runs a block under a fresh job
  * group and returns what it ran.
  */
final class Accounting(spark: SparkSession) {
  private val listener = new GroupListener
  spark.sparkContext.addSparkListener(listener)
  private var n = 0

  /** Run `f` in its own job group and report what it ran. */
  def run[A](label: String)(f: => A): Accounted[A] = {
    n += 1
    val group = s"pipebench-$n-$label"
    val sc = spark.sparkContext
    sc.setJobGroup(group, label, interruptOnCancel = false)
    val startMs = System.currentTimeMillis()
    val t0 = System.nanoTime()
    val a = try f finally sc.clearJobGroup()
    val secs = (System.nanoTime() - t0) / 1e9
    val endMs = System.currentTimeMillis()
    SparkInternals.drainListeners(sc)
    Accounted(a, secs, startMs, endMs, listener.take(group))
  }
}

/** A block's result, wall seconds, wall interval (epoch ms, comparable to
  * task times) and the usage of its job group.
  */
final case class Accounted[A](value: A, secs: Double, startMs: Long, endMs: Long, usage: GroupUsage)
