"""hermitia benchmark runner.

    python3 bench/run.py --workload gr-scan --seed 1 --seconds 30 --trace 0

Runs one seeded workload (see ``workloads.py``) in this process, serially,
and prints one JSON result as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics, timed with tracing off.
With ``--trace 1`` it times one untraced round, installs the outside-in
tracer (``tracer.py``), repeats set-up and rounds under it, reports the
per-layer counts, self times and ratios, and writes the spans of the
traced set-up and first traced round to ``.bench_out/``.

Times are reported at reference speed: each raw time is scaled by the
yardstick timed next to it (``yardstick.py``), which cancels the drift of
a shared host.  Raw wall times are printed in a ``{"detail": ...}`` line
just before the result, with the failure share, the worst check margin,
the tail percentile and the measuring environment.

The environment is pinned here: BLAS and OpenMP pools get one thread
before numpy loads, scans run with ``threads=None``, and lazy set-up is
warmed before timing.
"""

import argparse
import contextlib
import gc
import importlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("gr-scan", "seq-identities", "degenerate-sums")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3  # fresh interpreters, each timed from import to built inputs
SETUP_YARDSTICKS = 7  # run in the fresh interpreter on each side of its set-up
CHILD_TIMEOUT_S = 150


def pin_environment():
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)


def source_present():
    return os.path.isfile(os.path.join(SRC, "hermitia", "__init__.py"))


def setup(name, seed, quick=False):
    """Import the program and build the workload's inputs; returns (workload, raw seconds)."""
    start = time.perf_counter()
    workloads = importlib.import_module("workloads")
    workload = workloads.BY_NAME[name](seed, quick)
    elapsed = time.perf_counter() - start
    hermitia = sys.modules["hermitia"]
    if not os.path.abspath(hermitia.__file__).startswith(SRC + os.sep):
        raise RuntimeError("hermitia was imported from %s, not from %s" % (hermitia.__file__, SRC))
    return workload, elapsed


def fresh_setup(name, seed):
    """Set-up in this fresh interpreter, scaled by yardsticks run just before and after it.

    numpy is imported first, and timed, so that the yardstick can run
    before the rest of the import and the build.
    """
    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_s = time.perf_counter() - start
    from yardstick import Yardstick

    yard = Yardstick()
    for _ in range(SETUP_YARDSTICKS):
        yard.tick()
    _, rest = setup(name, seed)
    for _ in range(SETUP_YARDSTICKS):
        yard.tick()
    raw = numpy_s + rest
    return {"setup_s": yard.normalize(raw, statistics.median(yard.samples)), "raw_s": raw}


def setup_sample(name, seed):
    """(normalized, raw) set-up seconds of a fresh interpreter, import included."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError("set-up in a fresh interpreter failed:\n" + proc.stderr)
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["raw_s"]


def _margin(residual, tol):
    if tol > 0:
        return residual / tol
    return 0.0 if residual == 0 else float("inf")


def references_of(items):
    return [item.reference() if item.reference else None for item in items]


def run_round(items, references, yard, tracer=None):
    """Run every item once; time the calls, then check their results.

    A yardstick runs before every item and, for clocked scans, before
    every point; its own time is taken out of the item's time.
    """
    from tracer import PointClock

    gc.collect()
    wall_start = time.perf_counter()
    first_sample = len(yard.samples)
    out = {
        "attempted": 0,
        "failed": 0,
        "worst_margin": 0.0,
        "worst_check": None,
        "observed": {},
        "tallies": Counter(),
        "errors": [],
    }
    solve = []  # (raw seconds, reference yardstick seconds), normalized at the end
    points = []
    for index, item in enumerate(items):
        mark = yard.tick()
        if tracer is not None:
            tracer.point = index
        clock = PointClock(*item.clock, before=yard.tick, tracer=tracer) if item.clock else None
        result, error = None, None
        with clock or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                result = item.call()
            except Exception as exc:  # a raising item is a failed item; the run goes on
                error = "%s: %s: %r" % (item.label, type(exc).__name__, exc)
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - start
        if clock is None:
            points.append((elapsed, mark))
            solve.append((elapsed, mark))
        else:
            points.extend(zip(clock.durations, clock.marks))
            solve.extend(zip(clock.durations, clock.marks))
            inner = sum(yard.samples[m] for m in clock.marks) + sum(clock.durations)
            last = clock.marks[-1] if clock.marks else mark
            solve.append((elapsed - inner, (mark, last)))
        out["attempted"] += item.points
        passed = False
        if error is None:
            try:
                rows = item.check(result, references[index])
            except Exception as exc:  # a result the check cannot read fails it
                error = "%s: check raised %s: %r" % (item.label, type(exc).__name__, exc)
                traceback.print_exc(file=sys.stderr)
            else:
                observed = [(label, residual) for label, residual, tol in rows if tol is None]
                for label, residual in observed:
                    out["observed"][label] = max(out["observed"].get(label, 0.0), residual)
                rows = [row for row in rows if row[2] is not None]
                passed = all(residual <= tol for _, residual, tol in rows)
                for label, residual, tol in rows:
                    margin = _margin(residual, tol)
                    if margin >= out["worst_margin"]:
                        out["worst_margin"] = margin
                        out["worst_check"] = "%s: %s" % (item.label, label)
                if item.tally is not None:
                    out["tallies"].update(item.tally(result))
                if not passed:
                    error = "%s: check failed %s" % (
                        item.label,
                        [(label, residual, tol) for label, residual, tol in rows if residual > tol],
                    )
        if not passed:
            out["failed"] += item.points
            out["errors"].append(error)

    def reference(at):
        return yard.spanning(*at) if isinstance(at, tuple) else yard.local(at)

    out["solve_s"] = sum(yard.normalize(s, reference(at)) for s, at in solve)
    out["raw_solve_s"] = sum(s for s, _ in solve)
    out["latencies_ms"] = [1e3 * yard.normalize(s, reference(at)) for s, at in points]
    out["raw_latencies_ms"] = [1e3 * s for s, _ in points]
    out["yardstick_s"] = yard.spanning(first_sample, len(yard.samples) - 1)
    out["wall_s"] = time.perf_counter() - wall_start
    return out


def measure(workload, references, yard, seconds, tracer=None):
    """Whole rounds until the next one would end past ``seconds``; at least one.

    A workload with ``refill`` gets fresh items before every round after
    the first; building them and their references is not timed.
    """
    rounds = []
    items = workload.items
    start = time.perf_counter()
    while True:
        rounds.append(run_round(items, references, yard, tracer))
        if tracer is not None:
            tracer.keep_spans = False  # spans of the first round only
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds
        if workload.refill is not None:
            if tracer is not None:
                tracer.phase = "refill"  # not counted in per-layer metrics
            items = workload.refill()
            references = references_of(items)
            if tracer is not None:
                tracer.phase = "solve"


def latency_summary(latencies_ms, tail_percentile):
    """Median and the workload's tail percentile (nearest rank)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    rank = math.ceil(tail_percentile / 100.0 * n)
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank - 1],
        "tail_percentile": tail_percentile,
        "tail_beyond": n - rank,
        "samples": n,
    }


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (KeyError, TypeError):
        openblas = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": openblas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _totals(rounds):
    tallies = Counter()
    for r in rounds:
        tallies.update(r["tallies"])
    worst = max(rounds, key=lambda r: r["worst_margin"])
    observed = {}
    for r in rounds:
        for label, value in r["observed"].items():
            observed[label] = max(observed.get(label, 0.0), value)
    return {
        "observed": observed,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "tallies": tallies,
        # the first round's items are fixed by the seed, so this repeats exactly
        "worst_margin": rounds[0]["worst_margin"],
        "worst_check": rounds[0]["worst_check"],
        "worst_margin_all_rounds": worst["worst_margin"],
        "errors": [e for r in rounds for e in r["errors"]][:5],
    }


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end_metrics(rounds, setups, tail_percentile):
    """End-to-end metrics at reference speed, and the same figures raw."""
    points = sum(len(r["latencies_ms"]) for r in rounds)
    metrics, raw = {}, {}
    for out, prefix, setup_index in ((metrics, "", 0), (raw, "raw_", 1)):
        latency = latency_summary(
            [x for r in rounds for x in r[prefix + "latencies_ms"]], tail_percentile
        )
        out["setup_s"] = (statistics.median(s[setup_index] for s in setups), "s")
        out["solve_s"] = (statistics.median(r[prefix + "solve_s"] for r in rounds), "s")
        out["points_per_s"] = (points / sum(r[prefix + "solve_s"] for r in rounds), "1/s")
        out["point_ms_p50"] = (latency["p50"], "ms")
        out["point_ms_tail"] = (latency["tail"], "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, raw, {k: v for k, v in latency.items() if k not in ("p50", "tail")}


def layer_metrics(tracer, traced_rounds, untraced_rounds, tallies, scale):
    """Per-layer calls and self times (one set-up plus one round), ratios, overhead.

    ``scale`` converts raw self times to reference speed.
    """
    from tracer import NESTINGS, target_names

    n = len(traced_rounds)
    metrics = {}
    for name in target_names():
        solve_calls = tracer.calls[("solve", name)]
        per_round = solve_calls // n if solve_calls % n == 0 else solve_calls / n
        metrics[name + ".calls"] = (tracer.calls[("setup", name)] + per_round, "count")
        self_s = tracer.self_s[("setup", name)] + tracer.self_s[("solve", name)] / n
        metrics[name + ".self_s"] = (self_s * scale, "s")

    def solve(*names):
        return sum(tracer.calls[("solve", x)] for x in names)

    curvatures = solve("charts.curvature_tensor")
    seq_at = solve("sequences.ExactSeqChart.at")
    (outer, inner), = NESTINGS
    bases = {
        "ratio.evals_per_curvature": (
            solve("charts.ChartField.gram", "charts.ChartField.d", "charts.ChartField.dd"),
            curvatures,
        ),
        "ratio.rank_reads_per_gate": (
            solve("charts.ChartField.rank_at"),
            curvatures + solve("charts.chern_connection"),
        ),
        "ratio.seq_at_per_instance": (seq_at, tallies["sequence.instances"]),
        "ratio.quotient_form_per_seq_at": (solve("forms.quotient_form"), seq_at),
        "ratio.decomposition_applicable": (tallies["r_lambda.applicable"], tallies["r_lambda.attempted"]),
        "ratio.lambdas_per_threshold": (tracer.nested[("solve", outer, inner)], solve(outer)),
    }
    for name, (num, den) in bases.items():
        metrics[name] = (_ratio(num, den), "ratio")
    traced_solve = statistics.median(r["solve_s"] for r in traced_rounds)
    untraced_solve = statistics.median(r["solve_s"] for r in untraced_rounds)
    metrics["trace.overhead_s"] = (traced_solve - untraced_solve, "s")
    return metrics, {name: {"num": num, "den": den} for name, (num, den) in bases.items()}


def write_spans(tracer, name, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-seed%s.json" % (name, seed))
    names = sorted({span[0] for span in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "names": names,
                "columns": ["name", "start_s", "end_s", "parent", "point", "phase"],
                "spans": [[index[s[0]]] + s[1:] for s in tracer.spans],
            },
            fh,
        )
    return os.path.relpath(path, ROOT)


def run(name, seed, seconds, trace, quick=False, setup_samples=SETUP_SAMPLES):
    """One benchmark run; returns (result, detail)."""
    from yardstick import NOMINAL_S, Yardstick

    workload, first_setup = setup(name, seed, quick)
    references = references_of(workload.items)
    yard = Yardstick()
    for call in workload.warm:
        yard.tick()
        call()
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "first_setup_raw_s": first_setup,
    }

    if not trace:
        setups = [setup_sample(name, seed) for _ in range(setup_samples)]
        rounds = measure(workload, references, yard, seconds)
        metrics, raw, latency = end_to_end_metrics(rounds, setups, workload.tail_percentile)
        detail.update(
            raw={k: v for k, (v, _) in raw.items()},
            setup_samples_s=setups,
            solve_samples_s=[r["solve_s"] for r in rounds],
            raw_solve_samples_s=[r["raw_solve_s"] for r in rounds],
            latency=latency,
        )
    else:
        from tracer import Tracer

        untraced = measure(workload, references, yard, 0)
        with Tracer() as tracer:
            traced_workload, _ = setup(name, seed, quick)
            tracer.phase = "solve"
            budget = seconds - untraced[0]["wall_s"]
            traced = measure(traced_workload, references, yard, budget, tracer)
        rounds = untraced + traced
        scale = NOMINAL_S / statistics.median(r["yardstick_s"] for r in traced)
        metrics, bases = layer_metrics(tracer, traced, untraced, _totals(traced)["tallies"], scale)
        detail.update(traced_rounds=len(traced), ratio_bases=bases, spans=write_spans(tracer, name, seed))

    totals = _totals(rounds)
    detail.update(
        rounds=len(rounds),
        attempted=totals["attempted"],
        failed=totals["failed"],
        failed_frac=totals["failed"] / totals["attempted"],
        worst_margin=totals["worst_margin"],
        worst_check=totals["worst_check"],
        worst_margin_all_rounds=totals["worst_margin_all_rounds"],
        observed_max=totals["observed"],
        errors=totals["errors"],
        tallies=dict(totals["tallies"]),
        yardstick_median_s=statistics.median(yard.samples),
        environment=environment(),
    )
    result = {
        "correct": totals["failed"] == 0,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not source_present():
        print("hermitia source not found under %s" % SRC, file=sys.stderr)
        return 2
    pin_environment()
    if args.setup_only:
        print(json.dumps(fresh_setup(args.workload, args.seed)))
        return 0
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
