"""Pipeline benchmark: time, Spark jobs and repair accuracy per `clean` call.

Builds the benchmark (see build.py) on first use, then runs one workload in a
fresh JVM and prints, as the last stdout line, a JSON object with `correct`,
`attempted`, `failed` and `metrics` (each metric with its value and unit).
The full record (run metadata, per-call times, traced spans) is written to
.bench_build/out/. See pipebench/README.md for the metrics.

    python3 pipebench/run.py --workload nyc-zipcode-range --seed 0 --seconds 10 --trace 0
    python3 pipebench/run.py --workload nyc-zipcode-range --seed 0 --seconds 10 --trace 1
    python3 pipebench/run.py --self-test
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from build import DEFAULT_WORK, ROOT, BuildError, build, program_fingerprint, spark_jars

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170
HEAP = "3g"


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def java_cmd(classes: Path, main: str, args: list) -> list:
    work = DEFAULT_WORK
    return ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={work}/tmp",
            f"-Dlog4j2.configurationFile={Path(__file__).resolve().parent / 'log4j2.properties'}",
            f"-Dpipebench.work={work}",
            f"-Dpipebench.git_sha={git_sha()}",
            f"-Dpipebench.source_sha256={program_fingerprint()}",
            "-cp", f"{classes}:{spark_jars()}/*", main] + args


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not a.self_test and not a.workload:
        p.error("--workload is required")

    try:
        classes = build()
    except BuildError as e:
        print(f"pipebench: build failed: {e}", file=sys.stderr)
        return 2
    (DEFAULT_WORK / "tmp").mkdir(parents=True, exist_ok=True)

    if a.self_test:
        return subprocess.run(java_cmd(classes, "repro.pipebench.SelfTest", [])).returncode

    out = DEFAULT_WORK / "out" / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    cmd = java_cmd(classes, "repro.pipebench.PipelineBench",
                   ["--workload", a.workload, "--seed", str(a.seed),
                    "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", str(out)])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"pipebench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"pipebench: benchmark exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 4
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("pipebench: no result line", file=sys.stderr)
        return 5
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
