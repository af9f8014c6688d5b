#!/usr/bin/env python3
"""End-to-end benchmark of frap.

Builds the benchmark program from the sources of this checkout (into
.bench_build/ at the checkout root), runs one workload and prints one JSON
object as the last line of standard output:

    python3 perfbench/run.py --workload steady_churn --seed 7 --seconds 10 --trace 0

A run is SUBRUNS processes in sequence, each measuring seconds / SUBRUNS of
wall time on the same seeded inputs; every metric reported is the median
over those processes, so one disturbed process or placement cannot move it.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of the traced run. Exits non-zero without a result when the build or any
correctness check fails to run.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("steady_churn", "sharded_skew", "dag_long_path", "pipeline_runtime")
# Workloads whose decisions are a pure function of the seed.
DETERMINISTIC = ("steady_churn", "dag_long_path", "pipeline_runtime")
SUBRUNS = 5
# Direction of each end-to-end metric; per-layer metrics have none.
BETTER = {"decisions_per_s": "higher", "frame_p50_us": "lower",
          "frame_p99_us": "lower", "admitted_ratio": "higher",
          "setup_s": "lower", "peak_rss_mib": "lower"}
SUBRUN_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once and builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def subrun(args, seconds, spans):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=SUBRUN_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    build()
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    runs = []
    for k in range(SUBRUNS):
        spans = None
        if args.trace and k == SUBRUNS - 1:
            spans = os.path.join(spans_dir, args.workload + ".tsv")
        runs.append(subrun(args, args.seconds / SUBRUNS, spans))

    correct = all(r["correct"] for r in runs)
    problems = [q for r in runs for q in r["problems"]]
    digests = {r["digest"] for r in runs}
    if args.workload in DETERMINISTIC and len(digests) != 1:
        correct = False
        problems.append("decision digest differs between processes")
    metrics = {}
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}

    print("workload %s  seed %d  trace %d  %d processes x %.3g s" %
          (args.workload, args.seed, args.trace, SUBRUNS,
           args.seconds / SUBRUNS))
    print("decision digest %s" % ",".join(sorted(digests)))
    if not args.trace:
        print("frame samples per process: %s" %
              " ".join(str(r["frame_samples"]) for r in runs))
    for q in problems:
        print("CHECK FAILED: %s" % q)
    for name, m in metrics.items():
        print("%-36s %16.6g %-12s %s" % (name, m["value"], m["unit"],
                                         BETTER.get(name, "")))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
