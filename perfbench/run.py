#!/usr/bin/env python3
"""LogDiver benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  Builds the program and the harness
from source into .bench_build/ (first run only; later runs re-check the
build), simulates the workload's input from --seed, measures it for
--seconds seconds (--trace 1: one traced sweep instead), checks every
output against an oracle, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1).  See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("bw-batch", "error-storm", "bw-rerun", "fleet-replay")


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Content hash of everything the build reads (the checkout has no git)."""
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file())
    files.append(ROOT / "examples" / "logdiverd.cpp")
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build():
    """Configures once and brings ldbench + logdiverd up to date."""
    cmake_dir = BUILD / "cmake"
    log_path = BUILD / "build.log"
    with open(log_path, "a") as log:
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "-j", "4",
                      "--target", "ldbench", "logdiverd"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (see .bench_build/build.log)")
    return cmake_dir / "ldbench"


def run_step(cmd, cwd, deadline):
    """Runs one ldbench step in its own process group, so a timeout also
    stops the daemons and fleet workers it started."""
    timeout = max(1, int(deadline - time.monotonic()))
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(cmd[:2])} did not finish within {timeout} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[:2])} exited with {proc.returncode}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "examples" / "logdiverd.cpp").is_file():
        fail(f"no LogDiver sources under {ROOT}; run from a source checkout", 2)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json is missing", 2)
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace == "1" else "end_to_end"]

    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        ldbench = build()

    work = BUILD / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    traces = BUILD / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", args.trace]
        # Input generation and the measuring run share one budget that
        # grows with --seconds: 170 s at the 15 s of BENCHMARK.json, so a
        # built run ends within three minutes.  A traced run takes 25-95 s
        # whatever --seconds is.
        deadline = time.monotonic() + 125 + 3 * args.seconds
        run_step([str(ldbench), "gen", *common], work, deadline)
        trace_out = traces / f"{args.workload}-{args.seed}.json"
        run_step([str(ldbench), "run", *common, "--trace-out", str(trace_out)],
                 work, deadline)
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        row = result["metrics"].get(name)
        if row is None:
            fail(f"the run produced no '{name}'")
        if row["unit"] != entry["unit"]:
            fail(f"'{name}' came out in {row['unit']}, BENCHMARK.json says {entry['unit']}")
        metrics[name] = {"value": row["value"], "unit": row["unit"]}
    if result["attempted"] < 1:
        fail("no operation was attempted")

    provenance = dict(result["provenance"])
    provenance["source_digest"] = source_digest()
    provenance["samples"] = {name: result["metrics"][name]["note"] for name in metrics
                             if result["metrics"][name]["note"]}
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
