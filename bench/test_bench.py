"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench -q

They run the workloads at a reduced size (``quick=True``): counts that
must repeat, a tracer that catches every binding, output checks that
reject a wrong reference, a held-out seed that runs clean, and a runner
that refuses to run without the program's source.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

run.pin_environment()

from tracer import TARGETS, Tracer  # noqa: E402

SEED = 5
HELD_OUT_SEED = 9001  # not one of the seeds the recorded baseline used


def _values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def _counts(result):
    return {k: v for k, v in _values(result).items() if k.endswith(".calls") or k.startswith("ratio.")}


def _fails(rows):
    return any(tol is not None and residual > tol for _, residual, tol in rows)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_for_one_seed(name):
    first, _ = run.run(name, SEED, 0, True, quick=True)
    second, _ = run.run(name, SEED, 0, True, quick=True)
    assert first["correct"] and second["correct"]
    assert _counts(first) == _counts(second)


def test_gr_scan_counts_prove_every_binding_is_wrapped():
    workload, _ = run.setup("gr-scan", SEED, quick=True)
    result, _ = run.run("gr-scan", SEED, 0, True, quick=True)
    values = _values(result)
    # models binds curvature_tensor by name; missing that binding would read 0
    assert values["charts.curvature_tensor.calls"] == workload.items[0].points
    assert values["ratio.evals_per_curvature"] == 21
    assert values["ratio.rank_reads_per_gate"] == 17
    assert values["models.grassmannian_chart.calls"] == 1


def test_tracer_uninstall_restores_every_binding():
    import hermitia

    modules = [m for n, m in sorted(sys.modules.items()) if n == "hermitia" or n.startswith("hermitia.")]
    classes = [getattr(sys.modules["hermitia." + mod], attr.split(".")[0]) for mod, attr in TARGETS if "." in attr]
    before = [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]
    tracer = Tracer()
    with tracer:
        assert hermitia.models.curvature_tensor is not before[modules.index(hermitia.models)]["curvature_tensor"]
    after = [dict(vars(m)) for m in modules] + [dict(vars(c)) for c in classes]
    assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(before, after))


def test_gr_scan_check_rejects_the_declared_lower_bound():
    workload, _ = run.setup("gr-scan", SEED, quick=True)
    item = workload.items[0]
    result = item.call()
    assert not _fails(item.check(result, item.reference()))
    declared = run.importlib.import_module("hermitia.models").grassmannian_chart(2, 4, certify=False)
    assert _fails(item.check(result, (declared.hsc_lower, declared.hsc_upper)))


def test_seq_check_rejects_a_wrong_curvature_reference():
    workload, _ = run.setup("seq-identities", SEED, quick=True)
    item = workload.items[0]
    result = item.call()
    sub_ref, quot_ref = item.reference()
    assert not _fails(item.check(result, (sub_ref, quot_ref)))
    assert _fails(item.check(result, ([v + 1e-2 for v in sub_ref], quot_ref)))
    assert _fails(item.check(result, (sub_ref, [v * 1.01 for v in quot_ref])))


def test_degenerate_checks_reject_wrong_references():
    workload, _ = run.setup("degenerate-sums", SEED, quick=True)
    kinds = set()
    for item in workload.items:
        kind = item.label.split()[0]
        kinds.add(kind)
        result = item.call()
        reference = item.reference() if item.reference else None
        assert not _fails(item.check(result, reference)), item.label
        if kind == "find_lambda0":
            assert _fails(item.check(result, reference + 1.0))
        elif kind == "r_lambda":
            assert _fails(item.check(result, not reference))
        elif kind == "sum":
            assert _fails(item.check(result, reference * 1.01))
        elif kind == "gauge":
            assert _fails(item.check(2e-6, reference))
        elif kind == "q_lambda":
            assert _fails(item.check(dataclasses.replace(result, projection_residual=1e-7), None))
            assert _fails(item.check(dataclasses.replace(result, semipositive=False), None))
    assert kinds == {"find_lambda0", "r_lambda", "q_lambda", "sum", "gauge"}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_held_out_seed_runs_clean(name):
    result, detail = run.run(name, HELD_OUT_SEED, 0, False, quick=True, setup_samples=1)
    assert result["correct"], detail["errors"]
    assert result["failed"] == 0


def _cli(args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "bench/run.py"] + args, cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_declared_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = _cli(["--workload", "seq-identities", "--seed", str(HELD_OUT_SEED), "--seconds", "1", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0


def test_cli_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(["--workload", "gr-scan", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
