#!/usr/bin/env python3
"""The repository benchmark.

Builds the `perfbench` binary (perfbench/CMakeLists.txt) against the
repository's sources in src/, runs one workload and prints its result:

    python3 perfbench/run.py --workload <analytics-dist|serve-read|serve-write>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to .bench_build/perfbench
(incremental after the first run); a traced run writes its spans to
.bench_build/perfbench/traces/. Detail lines start with '#'; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
with --trace 1). The exit code is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "Release"
WORKLOADS = ("analytics-dist", "serve-read", "serve-write")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds the perfbench target; returns its path."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(os.cpu_count() or 1)
    for attempt in range(2):
        with open(log_path, "w") as log:
            steps = []
            if not (BUILD_DIR / "CMakeCache.txt").exists():
                steps.append(["cmake", "-S", str(BENCH_DIR), "-B",
                              str(BUILD_DIR),
                              "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
            steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                          "perfbench", "-j", jobs])
            ok = all(subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode == 0
                     for step in steps)
        if ok:
            return BUILD_DIR / "perfbench"
        if attempt == 0:
            # A cache from another checkout path cannot be reused.
            shutil.rmtree(BUILD_DIR)
            BUILD_DIR.mkdir(parents=True)
    tail = log_path.read_text(errors="replace").splitlines()[-30:]
    fail("build failed:\n" + "\n".join(tail))


def source_digest():
    """SHA-256 over the paths and bytes of src/, the program measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no program sources at %s/src: run from a full checkout" % ROOT)

    started = time.monotonic()
    binary = build()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "build_type": BUILD_TYPE,
        "nproc": os.cpu_count(),
    }
    print("# meta " + json.dumps(meta), flush=True)

    trace_dir = BUILD_DIR / "traces"
    trace_dir.mkdir(exist_ok=True)
    budget = max(10.0, RUN_TIMEOUT_S - (time.monotonic() - started))
    try:
        run = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--trace-dir", str(trace_dir)],
            capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %.0f s" % budget)
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        ok = False
    if not ok:
        fail("no result from the benchmark (exit %d)" % run.returncode)
    for line in lines[:-1]:
        print(line)
    for name, metric in result["metrics"].items():
        print("# %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print(lines[-1], flush=True)
    sys.exit(0 if run.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
