"""Compare two checkouts on the benchmark in alternating pairs.

    python tools/bench_pairs.py PARENT CHANGE [--pairs 10] [--seed 1]
        [--workload W ...]

PARENT and CHANGE are two checkout directories of this repository, for
example the parent commit unpacked with ``git archive`` next to the
working tree.  For each workload (all three by default) the script runs
``bench/run.py --trace 0`` of each checkout, in its own directory, for
the ``run_seconds`` of the change's BENCHMARK.json, once per pair, the
parent first in even pairs and the change first in odd ones, so that a
drift of the host falls on both sides alike.  Each run prints one line
as it ends.

Then, per workload and end-to-end metric (the ``end_to_end`` list of the
change's BENCHMARK.json), it prints each side's median and quartiles, the
change of the median, and how many pairs the change won (ties count for
neither side).  At least ten pairs are run.  A gain is shown as ``gain``
when the change won at least nine tenths of the pairs and the medians
differ by more than the parent's interquartile range; a metric whose
median is worse than the parent's by more than its bound is shown as
``WORSE``.  Runs that are not correct or that failed operations are
counted per side.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("gr-scan", "seq-identities", "degenerate-sums")


def run_once(checkout, workload, seed, seconds):
    """One run of ``bench/run.py`` in ``checkout``: its last output line,
    the result, as a dict."""
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metric, parent, change):
    """One table row: each side's median and quartiles, the relative
    change of the median, the change's wins over the pairs and the
    verdict."""
    lower = metric["better"] == "lower"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    worse = (cm - pm) if lower else (pm - cm)
    if wins >= 0.9 * len(parent) and -worse > p3 - p1:
        verdict = "gain"
    elif worse > metric["bound"] * abs(pm):
        verdict = "WORSE"
    else:
        verdict = ""
    rel = (cm - pm) / pm * 100.0 if pm else float("nan")
    return "  %-14s %10.4g [%.4g, %.4g]  %10.4g [%.4g, %.4g]  %+7.1f%%  %2d/%d  %s" % (
        metric["name"], pm, p1, p3, cm, c1, c3, rel, wins, len(parent), verdict,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    for workload in args.workload or WORKLOADS:
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(sides[side], workload, args.seed, seconds)
                results[side].append(result)
                values = " ".join(
                    "%s=%.4g" % (m["name"], result["metrics"][m["name"]]["value"]) for m in metrics
                )
                print("%s pair %d %s: correct=%s failed=%s %s" % (
                    workload, i, side, result["correct"], result["failed"], values), flush=True)
        print("\n%s, seed %d, %d pairs of %g s runs: parent median [quartiles], change median "
              "[quartiles], change of the median, change's wins" % (
                  workload, args.seed, args.pairs, seconds))
        for side, runs in results.items():
            bad = sum(not r["correct"] or r["failed"] > 0 for r in runs)
            print("  %s: %d of %d runs not correct or with failed operations" % (side, bad, len(runs)))
        for metric in metrics:
            name = metric["name"]
            print(summarize(
                metric,
                [r["metrics"][name]["value"] for r in results["parent"]],
                [r["metrics"][name]["value"] for r in results["change"]],
            ))
        print(flush=True)


if __name__ == "__main__":
    main()
