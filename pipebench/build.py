"""Build file of the pipeline benchmark.

Compiles the repo's main sources (src/main/scala) together with the
benchmark's own sources (pipebench/scala) using the Scala compiler that ships
in the Spark distribution's jars, so no build tool or network is needed.
Classes go to <work>/classes; a fingerprint of every source file skips the
compile when nothing changed.

    python3 pipebench/build.py        # from the repo root
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
BENCH_SOURCES = HERE / "scala"
DEFAULT_WORK = ROOT / ".bench_build"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """The jars of the Spark distribution at $SPARK_HOME, else of the first
    distribution whose bin/spark-submit is on the PATH."""
    path = os.environ.get("PATH", "").split(os.pathsep)
    homes = [os.environ.get("SPARK_HOME")] + [
        str(Path(d).parent) for d in path if d and (Path(d) / "spark-submit").is_file()]
    for home in filter(None, homes):
        jars = Path(home) / "jars"
        if any(jars.glob("scala-compiler-*.jar")):
            return jars
    raise BuildError("no Spark distribution with a Scala compiler (set SPARK_HOME)")


def sources() -> list:
    if not PROGRAM_SOURCES.is_dir():
        raise BuildError(f"program sources not found at {PROGRAM_SOURCES}")
    files = sorted(PROGRAM_SOURCES.rglob("*.scala")) + sorted(BENCH_SOURCES.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources to build")
    return files


def fingerprint(files) -> str:
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def program_fingerprint() -> str:
    return fingerprint(sorted(PROGRAM_SOURCES.rglob("*.scala")))


def build(work: Path = DEFAULT_WORK) -> Path:
    """Compile if needed; return the classes directory."""
    files = sources()
    jars = spark_jars()
    classes = work / "classes"
    stamp = work / "classes.sha256"
    digest = fingerprint(files)
    if classes.is_dir() and stamp.is_file() and stamp.read_text() == digest:
        return classes
    staging = work / "classes.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    cmd = ["java", "-Xss4m", "-Xmx2g", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={work}",
           "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(staging)] + [str(f) for f in files]
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BuildError(f"scalac failed with exit code {proc.returncode}")
    shutil.rmtree(classes, ignore_errors=True)
    staging.rename(classes)
    stamp.write_text(digest)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"build failed: {e}", file=sys.stderr)
        sys.exit(2)
