package repro.spatialjoin

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream, InputStream,
  OutputStream}
import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets.UTF_8

import scala.collection.mutable
import scala.reflect.ClassTag

import org.apache.spark.Partitioner
import org.apache.spark.serializer.{DeserializationStream, SerializationStream, Serializer, SerializerInstance}

/** Sends a copy, keyed by its grid cell `(cx, cy)`, to one of `partitions`
  * partitions by a mixed hash of the cell, so neighbouring cells spread; a
  * tally is keyed by the `Int` index of the partition it goes to.
  */
private[repro] final class CellPartitioner(partitions: Int) extends Partitioner {
  def numPartitions: Int = partitions

  def getPartition(key: Any): Int = key match {
    case to: Int => to
    case _ =>
      val cell = key.asInstanceOf[(Long, Long)]
      // MurmurHash3's 64-bit finalizer over the two coordinates.
      var h = cell._1 * 0x9e3779b97f4a7c15L + cell._2
      h = (h ^ (h >>> 33)) * 0xff51afd7ed558ccdL
      h = (h ^ (h >>> 33)) * 0xc4ceb9fe1a85ec53L
      java.lang.Math.floorMod(h ^ (h >>> 33), partitions.toLong).toInt
  }

  override def equals(other: Any): Boolean = other match {
    case p: CellPartitioner => p.numPartitions == numPartitions
    case _                  => false
  }

  override def hashCode: Int = numPartitions
}

/** The join's shuffle serializer, for its two record types ([[JoinRecord]]):
  * a cell key `(cx, cy)` with a [[Copy]], and a reduce partition's index
  * with a [[Tally]]. A key starts with a tag byte, 0 for a cell and 1 for a
  * tally, and the value that follows it is read by that tag. A copy is
  * written in a fixed layout: `cx`, `cy` and `id` as longs, `x` and `y` as
  * doubles, the value as a string and `probe` as one byte. A tally is its
  * `part` as an int, `records` as a long, its extent as four doubles, its
  * `bad` message as a string, then the number of its counts as an int and
  * each value as a string with its count as a long. A string is its UTF-8
  * byte length (−1 for null) and bytes; values are UTF-8 text, as Spark
  * holds strings, so they read back unchanged. A deserialization stream
  * reads equal values as one shared `String`, so a reduce task holds one
  * string per distinct value of each map output it reads, not one per copy.
  *
  * Spark's shuffle writes a record as its key, then its value, and reads it
  * back the same way; a whole record (`writeObject`) is a `(key, value)`
  * pair.
  */
private[repro] object CopySerializer extends Serializer with Serializable {

  private val CellTag = 0
  private val TallyTag = 1

  def newInstance(): SerializerInstance = new SerializerInstance {
    def serialize[T: ClassTag](t: T): ByteBuffer = {
      val bytes = new ByteArrayOutputStream
      serializeStream(bytes).writeObject(t).close()
      ByteBuffer.wrap(bytes.toByteArray)
    }

    def deserialize[T: ClassTag](bytes: ByteBuffer): T = {
      val a = new Array[Byte](bytes.remaining)
      bytes.duplicate().get(a)
      deserializeStream(new ByteArrayInputStream(a)).readObject[T]()
    }

    def deserialize[T: ClassTag](bytes: ByteBuffer, loader: ClassLoader): T = deserialize[T](bytes)

    def serializeStream(s: OutputStream): SerializationStream = new SerializationStream {
      private val out = new DataOutputStream(s)

      private def writeString(v: String): Unit =
        if (v == null) out.writeInt(-1)
        else {
          val b = v.getBytes(UTF_8)
          out.writeInt(b.length)
          out.write(b)
        }

      override def writeKey[T: ClassTag](key: T): SerializationStream = {
        key match {
          case to: Int =>
            out.writeByte(TallyTag)
            out.writeInt(to)
          case _ =>
            val cell = key.asInstanceOf[(Long, Long)]
            out.writeByte(CellTag)
            out.writeLong(cell._1)
            out.writeLong(cell._2)
        }
        this
      }

      override def writeValue[T: ClassTag](value: T): SerializationStream = {
        value match {
          case c: Copy =>
            out.writeLong(c.id)
            out.writeDouble(c.x)
            out.writeDouble(c.y)
            writeString(c.value)
            out.writeBoolean(c.probe)
          case t: Tally =>
            out.writeInt(t.part)
            out.writeLong(t.records)
            Seq(t.x0, t.x1, t.y0, t.y1).foreach(out.writeDouble)
            writeString(t.bad)
            out.writeInt(t.counts.size)
            t.counts.foreach { case (v, n) => writeString(v); out.writeLong(n) }
        }
        this
      }

      def writeObject[T: ClassTag](t: T): SerializationStream = {
        val (key, value) = t.asInstanceOf[(Any, JoinRecord)]
        writeKey(key).writeValue(value)
      }

      def flush(): Unit = out.flush()

      def close(): Unit = out.close()
    }

    def deserializeStream(s: InputStream): DeserializationStream = new DeserializationStream {
      private val in = new DataInputStream(s)
      private val distinct = mutable.HashMap.empty[String, String]
      /** The tag of the last key read, which tells the type of its value. */
      private var tag = CellTag

      private def readString(): String = {
        val n = in.readInt()
        if (n < 0) null
        else {
          val b = new Array[Byte](n)
          in.readFully(b)
          val v = new String(b, UTF_8)
          distinct.getOrElseUpdate(v, v)
        }
      }

      override def readKey[T: ClassTag](): T = {
        tag = in.readByte()
        (if (tag == TallyTag) in.readInt() else (in.readLong(), in.readLong())).asInstanceOf[T]
      }

      override def readValue[T: ClassTag](): T =
        (if (tag == TallyTag) {
          val part = in.readInt()
          val records = in.readLong()
          val (x0, x1, y0, y1) = (in.readDouble(), in.readDouble(), in.readDouble(), in.readDouble())
          val bad = readString()
          val counts = Map.newBuilder[String, Long]
          for (_ <- 0 until in.readInt()) counts += readString() -> in.readLong()
          Tally(part, records, x0, x1, y0, y1, counts.result(), bad)
        } else {
          val id = in.readLong()
          val x = in.readDouble()
          val y = in.readDouble()
          val value = readString()
          Copy(id, x, y, value, in.readBoolean())
        }).asInstanceOf[T]

      def readObject[T: ClassTag](): T = (readKey[Any](), readValue[JoinRecord]()).asInstanceOf[T]

      def close(): Unit = in.close()
    }
  }
}
