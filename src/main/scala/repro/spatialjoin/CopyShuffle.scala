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
  * partitions by a mixed hash of the cell, so neighbouring cells spread.
  */
private[repro] final class CellPartitioner(partitions: Int) extends Partitioner {
  def numPartitions: Int = partitions

  def getPartition(key: Any): Int = {
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

/** The join's shuffle serializer, for its one record type: a cell key
  * `(cx, cy)` with a [[Copy]]. A record is written in a fixed layout: `cx`,
  * `cy` and `id` as longs, `x` and `y` as doubles, the value as its UTF-8
  * byte length (−1 for null) and bytes, and `probe` as one byte. Values are
  * UTF-8 text, as Spark holds strings, so they read back unchanged. A
  * deserialization stream reads equal values as one shared `String`, so a
  * reduce task holds one string per distinct value of each map output it
  * reads, not one per copy.
  *
  * Spark's shuffle writes a record as its key, then its value, and reads it
  * back the same way; a whole record (`writeObject`) is a `((cx, cy), copy)`
  * pair.
  */
private[repro] object CopySerializer extends Serializer with Serializable {

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

      override def writeKey[T: ClassTag](key: T): SerializationStream = {
        val cell = key.asInstanceOf[(Long, Long)]
        out.writeLong(cell._1)
        out.writeLong(cell._2)
        this
      }

      override def writeValue[T: ClassTag](value: T): SerializationStream = {
        val c = value.asInstanceOf[Copy]
        out.writeLong(c.id)
        out.writeDouble(c.x)
        out.writeDouble(c.y)
        if (c.value == null) out.writeInt(-1)
        else {
          val b = c.value.getBytes(UTF_8)
          out.writeInt(b.length)
          out.write(b)
        }
        out.writeBoolean(c.probe)
        this
      }

      def writeObject[T: ClassTag](t: T): SerializationStream = {
        val (cell, copy) = t.asInstanceOf[((Long, Long), Copy)]
        writeKey(cell).writeValue(copy)
      }

      def flush(): Unit = out.flush()

      def close(): Unit = out.close()
    }

    def deserializeStream(s: InputStream): DeserializationStream = new DeserializationStream {
      private val in = new DataInputStream(s)
      private val distinct = mutable.HashMap.empty[String, String]

      override def readKey[T: ClassTag](): T = (in.readLong(), in.readLong()).asInstanceOf[T]

      override def readValue[T: ClassTag](): T = {
        val id = in.readLong()
        val x = in.readDouble()
        val y = in.readDouble()
        val n = in.readInt()
        val value =
          if (n < 0) null
          else {
            val b = new Array[Byte](n)
            in.readFully(b)
            val v = new String(b, UTF_8)
            distinct.getOrElseUpdate(v, v)
          }
        Copy(id, x, y, value, in.readBoolean()).asInstanceOf[T]
      }

      def readObject[T: ClassTag](): T = (readKey[(Long, Long)](), readValue[Copy]()).asInstanceOf[T]

      def close(): Unit = in.close()
    }
  }
}
