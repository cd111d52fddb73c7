package repro.pipebench

/** Minimal JSON writer for the benchmark's output: maps, sequences, strings,
  * booleans and numbers (doubles keep every digit `Double.toString` gives).
  */
object Json {
  def apply(v: Any): String = v match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case d: Double           => require(!d.isNaN && !d.isInfinite, s"non-finite number $d"); d.toString
    case n: Int              => n.toString
    case n: Long             => n.toString
    case m: Map[_, _]        => m.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case s: Seq[_]           => s.map(apply).mkString("[", ", ", "]")
    case o                   => throw new IllegalArgumentException(s"not JSON: $o")
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.result()
  }
}
