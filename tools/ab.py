#!/usr/bin/env python3
"""Same-host A/B runner for the perfbench workloads.

Extracts two git revisions into fresh trees (git archive), builds each
tree's benchmark, then runs perfbench/run.py at seed 7 (the seed every
pinned digest is taken at) for each workload in alternating pairs, one
process at a time, swapping which side goes first on every pair. For each workload it prints both sides' decision digests
and, for every end-to-end metric that BENCHMARK.json declares plus the CPU
time of the run's processes (getrusage), the median and quartiles of each
side, the head/base ratio of the medians, how many pairs the head won, and
the two-sided sign-test p-value of that win count:

    python3 tools/ab.py BASE HEAD --pairs 10 --seconds 5
    python3 tools/ab.py HEAD HEAD --pairs 2 --seconds 0.2 --expect-same-digests

A revision is anything git archive accepts, so an uncommitted tree can be
measured through `git stash create` (after `git add -A` for new files).
Exits non-zero when a run fails its correctness checks, or, with
--expect-same-digests, when a workload whose digest is stable on each side
has different digests on the two sides.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CPU_METRIC = "cpu_s"
# The seed every pinned decision digest is taken at.
SEED = 7


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def extract(rev, dest):
    """Writes the tree of `rev` into `dest`."""
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree, workload, seconds):
    """One perfbench/run.py invocation: (metrics, digest, correct, cpu_s)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", repr(seconds)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        log(proc.stderr)
        raise RuntimeError("%s: run.py exited %d" % (tree, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # A workload with no deterministic digest prints an empty one.
    digest = next(line[len("decision digest "):].strip() for line in lines
                  if line.startswith("decision digest ")) or "-"
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    correct = result["correct"] and result["failed"] == 0
    return metrics, digest, correct, cpu


def sign_test_p(wins, losses):
    """Two-sided exact sign test over the pairs that were not ties."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def report(workload, metrics, runs, digests):
    print("== %s" % workload)
    for side in ("base", "head"):
        print("  %s digest %s" % (side, ",".join(sorted(digests[side]))))
    print("  %-16s %-32s %-32s %7s %6s %7s" %
          ("metric", "base median [q1, q3]", "head median [q1, q3]",
           "head/b", "wins", "sign p"))
    for name, better in metrics:
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        wins = losses = 0
        for b, h in zip(base, head):
            if h == b:
                continue
            if (h > b) == (better == "higher"):
                wins += 1
            else:
                losses += 1
        cols = []
        for values in (base, head):
            lo, hi = quartiles(values)
            cols.append("%.4g [%.4g, %.4g]" % (statistics.median(values),
                                               lo, hi))
        mb = statistics.median(base)
        ratio = "%.3f" % (statistics.median(head) / mb) if mb else "-"
        print("  %-16s %-32s %-32s %7s %3d/%-2d %7.3g" %
              (name, cols[0], cols[1], ratio, wins, len(base),
               sign_test_p(wins, losses)))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="git revision of the base side")
    p.add_argument("head", help="git revision of the head side")
    p.add_argument("--workload", action="append", dest="workloads",
                   help="workload to run (repeatable; default: every "
                        "workload in BENCHMARK.json)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=5.0,
                   help="--seconds of each run.py invocation")
    p.add_argument("--workdir", help="where the two trees go, as base/ and "
                                     "head/, which must not exist yet "
                                     "(default: a new temporary directory, "
                                     "removed after)")
    p.add_argument("--expect-same-digests", action="store_true")
    args = p.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        p.error("--pairs must be >= 1 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    metrics.append((CPU_METRIC, "lower"))

    workdir = args.workdir or tempfile.mkdtemp(prefix="frap-ab-")
    trees = {"base": os.path.join(workdir, "base"),
             "head": os.path.join(workdir, "head")}
    taken = [t for t in trees.values() if os.path.exists(t)]
    if taken:
        p.error("%s already exists; remove it or pick another --workdir" %
                " and ".join(taken))
    status = 0
    try:
        for side, rev in (("base", args.base), ("head", args.head)):
            extract(rev, trees[side])
            # The first invocation builds the tree; it is not measured.
            log("building %s (%s)" % (side, rev))
            run_once(trees[side], workloads[0], 0.05)
        for workload in workloads:
            runs = {"base": [], "head": []}
            digests = {"base": set(), "head": set()}
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    values, digest, correct, cpu = run_once(
                        trees[side], workload, args.seconds)
                    values[CPU_METRIC] = cpu
                    runs[side].append(values)
                    digests[side].add(digest)
                    if not correct:
                        log("%s %s pair %d: correctness check failed" %
                            (workload, side, i))
                        status = 1
            report(workload, metrics, runs, digests)
            stable = all(len(d) == 1 for d in digests.values())
            if (args.expect_same_digests and stable
                    and digests["base"] != digests["head"]):
                print("  DIGESTS DIFFER")
                status = 1
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, RuntimeError, OSError,
            ValueError, KeyError) as e:
        log("ab: %s" % e)
        sys.exit(1)
