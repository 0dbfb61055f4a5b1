import copy

import numpy as np
import pytest

from hermitia import ConfigError, HermitiaError, NotPositive, NotPositiveAtPoint, fibration, models
from hermitia.charts import ChartField, curvature_tensor, hsc_of_tensor, torsion_defect
from hermitia.fibration import (
    DEFAULT_LAMBDA_SCHEDULE,
    FibrationModel,
    LambdaScanResult,
    find_lambda0,
    h_lambda,
    hirzebruch_model,
    product_model,
    q_lambda_limit,
    r_lambda_decomposed,
    vertical_hsc_check,
)
from hermitia.fields import constant_field, embedded_factor_field, scaled_field, sum_field
from hermitia.models import _draw, _refine_direction, fubini_study_chart, resolve_model

from oracles import point_scan


@pytest.fixture(scope="module")
def prod():
    fs1 = fubini_study_chart(1)
    return product_model(fs1, fs1)


@pytest.fixture(scope="module")
def hirz1():
    return hirzebruch_model(1)


def fiber_only_field():
    """Fiberwise round metric zero-padded onto the (z, w) chart."""
    return embedded_factor_field(
        fubini_study_chart(1), 2, 1, radius=np.array([2.0, 2.0])
    )


def zero_base_model():
    b2 = constant_field(np.zeros((2, 2)), 2, radius=2.0)
    fs1 = fubini_study_chart(1)
    b1 = sum_field(
        embedded_factor_field(fs1, 2, 0, radius=np.array([2.0, 2.0])),
        embedded_factor_field(fs1, 2, 1, radius=np.array([2.0, 2.0])),
    )
    return FibrationModel(1, 1, b1, b2)


# ---------------------------------------------------------------------------
# model construction


def test_product_model_shape(prod):
    assert prod.base_dim == 1 and prod.fiber_dim == 1
    assert prod.vertical == slice(1, 2)
    assert prod.b2_field.gram(np.array([0.2, 0.3j]))[1, 1] == 0


def test_negative_fiber_metric_rejected():
    fs1 = fubini_study_chart(1)
    with pytest.raises(NotPositive):
        product_model(fs1, scaled_field(fs1, -1.0))


def test_base_form_must_not_touch_vertical():
    fs1 = fubini_study_chart(1)
    full = sum_field(
        embedded_factor_field(fs1, 2, 0, radius=np.array([2.0, 2.0])),
        embedded_factor_field(fs1, 2, 1, radius=np.array([2.0, 2.0])),
    )
    with pytest.raises(HermitiaError):
        FibrationModel(1, 1, fiber_only_field(), full)


def test_dimensions_must_be_positive():
    with pytest.raises(ConfigError):
        FibrationModel(0, 2, fiber_only_field(), fiber_only_field())


def test_fields_must_live_on_the_product_chart():
    fs1 = fubini_study_chart(1)
    with pytest.raises(HermitiaError):
        FibrationModel(1, 1, fs1, fs1)


def test_hirzebruch_rejects_negative_twist():
    with pytest.raises(ConfigError):
        hirzebruch_model(-1)


# ---------------------------------------------------------------------------
# the lambda family


def test_h_lambda_identity_at_origin(prod):
    assert np.allclose(h_lambda(prod, 0.0).gram(np.zeros(2)), np.eye(2))


def test_h_lambda_degenerates_as_lambda_drops(prod):
    g = h_lambda(prod, -30.0).gram(np.zeros(2))
    assert np.linalg.eigvalsh(g)[0] < 1e-10


def test_h_lambda_positive_for_hirzebruch(hirz1):
    w = np.linalg.eigvalsh(h_lambda(hirz1, 2.0).gram(np.zeros(2)))
    assert np.allclose(w, [1.0, np.exp(2.0)])


@pytest.mark.parametrize("lam", [0.0, 1.0, 3.0])
def test_decomposition_product(prod, lam):
    rec = r_lambda_decomposed(prod, lam, np.array([0.2 + 0.1j, 0.3 - 0.2j]))
    assert rec.applicable
    assert rec.residual <= 1e-6


def test_decomposition_hirzebruch_off_section(hirz1):
    rec = r_lambda_decomposed(hirz1, 2.0, np.array([0.2 + 0.1j, 0.3 - 0.2j]))
    assert rec.applicable
    assert rec.residual <= 1e-4


def test_decomposition_not_applicable_on_zero_section(hirz1):
    rec = r_lambda_decomposed(hirz1, 2.0, np.array([0.2 + 0.1j, 0.0]))
    assert not rec.applicable
    assert rec.formula is None
    assert rec.residual is None
    assert rec.direct is not None  # the direct route still reports curvature


def test_decomposition_vacuous_base(prod):
    model = zero_base_model()
    rec = r_lambda_decomposed(model, 5.0, np.array([0.2 + 0.1j, 0.3 - 0.2j]))
    assert rec.residual <= 1e-6


def test_decomposition_needs_positive_h():
    model = FibrationModel(1, 1, fiber_only_field(), constant_field(np.zeros((2, 2)), 2, radius=2.0))
    with pytest.raises(NotPositive):
        r_lambda_decomposed(model, 1.0, np.array([0.1, 0.1]))


# ---------------------------------------------------------------------------
# quotient family limit


def test_quotient_family_trivial_for_product(prod):
    rec = q_lambda_limit(prod, np.array([0.2 + 0.1j, 0.3 - 0.2j]))
    assert rec.trivial
    assert max(rec.errors) < 1e-13
    assert rec.semipositive
    assert not rec.positive_on_vertical


def test_quotient_family_trivial_without_base():
    rec = q_lambda_limit(zero_base_model(), np.array([0.2, 0.1j]))
    assert rec.trivial


def test_quotient_family_decays_for_hirzebruch(hirz1):
    rec = q_lambda_limit(hirz1, np.array([0.2 + 0.1j, 0.3 - 0.2j]))
    assert not rec.trivial
    assert rec.semipositive
    assert not rec.positive_on_vertical  # the limit vanishes on the fiber block
    assert rec.projection_residual <= 1e-8
    want = np.exp(-2.0)
    for ratio in rec.ratios:
        assert ratio is not None
        assert abs(ratio - want) <= 0.2 * want


def test_quotient_limit_is_positive_on_base_block(hirz1):
    z = np.array([0.2 + 0.1j, 0.3 - 0.2j])
    rec = q_lambda_limit(hirz1, z)
    base_block = rec.q_inf.gram[:1, :1]
    assert np.linalg.eigvalsh(base_block)[0] > 1e-4


# ---------------------------------------------------------------------------
# vertical sectional curvature


def vertical_grid(n=5, scale=0.25):
    return [
        np.array([scale * (a - 2) * (1 + 0.3j), scale * (b - 2) * (1 - 0.2j)])
        for a in range(n)
        for b in range(n)
    ]


def test_vertical_hsc_product_is_exactly_fiberwise(prod):
    rep = vertical_hsc_check(prod, vertical_grid())
    assert rep.positive
    assert abs(rep.min_vertical_h - 2.0) < 1e-4
    assert max(rep.gap_by_lambda.values()) < 1e-4
    assert not rep.fiber_flat


def test_vertical_hsc_hirzebruch_positive(hirz1):
    rep = vertical_hsc_check(hirz1, vertical_grid())
    assert rep.points == 25
    assert rep.positive
    assert rep.min_vertical_h > 1.0
    assert max(rep.gap_by_lambda.values()) < 1e-6


def test_vertical_hsc_flags_flat_fiber():
    flat = product_model(
        fubini_study_chart(1), constant_field(np.ones((1, 1)), 1, radius=2.0)
    )
    rep = vertical_hsc_check(flat, vertical_grid(n=2))
    assert rep.fiber_flat
    assert abs(rep.min_vertical_h) < 1e-10


@pytest.mark.parametrize("which", ["prod", "hirz1"])
def test_vertical_check_reads_one_fiber_curvature_per_point(which, prod, hirz1, monkeypatch):
    from hermitia import charts, fibration

    model = {"prod": prod, "hirz1": hirz1}[which]
    calls = []
    original = charts.curvature_tensor

    def counted(field, z):
        calls.append(field.m)
        return original(field, z)

    monkeypatch.setattr(charts, "curvature_tensor", counted)
    monkeypatch.setattr(fibration, "curvature_tensor", counted)
    grid = vertical_grid(n=3)
    rep = vertical_hsc_check(model, grid)
    assert calls.count(model.fiber_dim) == len(grid)
    assert calls.count(model.total_m) == len(grid) * len(rep.lambdas)


def test_vertical_check_reads_each_fiber_gram_4m_plus_1_times(hirz1):
    model = copy.copy(hirz1)
    reads = []

    def fiber_at(zb):
        base = hirz1.fiber_field_factory(zb)

        def counted(zs):
            reads.extend(zs)
            return base.stack_fn(zs)

        return ChartField(1, 1, counted, radius=2.0, d_fn=base.d_fn, dd_fn=base.dd_fn, self_check=False)

    model.fiber_field_factory = fiber_at
    grid = vertical_grid(n=3)
    vertical_hsc_check(model, grid)
    assert len(reads) == len(grid) * (4 * model.fiber_dim + 1)


def test_vertical_check_rejects_a_fiber_that_is_not_positive(hirz1):
    model = copy.copy(hirz1)
    model.fiber_field_factory = lambda zb: constant_field(np.diag([-1.0]), 1, radius=2.0)
    with pytest.raises(NotPositiveAtPoint, match="fiber metric is not positive-definite"):
        vertical_hsc_check(model, vertical_grid(n=2))


# ---------------------------------------------------------------------------
# threshold search


def test_product_threshold_is_zero(prod):
    scan = find_lambda0(prod, seed=0)
    assert scan.found
    assert scan.lambda0 == 0.0
    assert abs(scan.records[-1]["min_H"] - 1.0) < 1e-6  # two equal round factors


def test_hirzebruch_threshold_found_and_stable(hirz1):
    scan = find_lambda0(hirz1, sphere_samples=200, seed=0)
    doubled = find_lambda0(hirz1, sphere_samples=400, seed=0)
    assert scan.found and doubled.found
    assert scan.lambda0 == doubled.lambda0
    assert doubled.records[-1]["min_H"] > 0.0


def test_threshold_rerun_is_identical_and_a_thread_count_is_rejected(hirz1):
    a = find_lambda0(hirz1, sphere_samples=200, seed=3)
    b = find_lambda0(hirz1, sphere_samples=200, seed=3, threads=None)
    assert a.lambda0 == b.lambda0
    assert a.records == b.records
    with pytest.raises(ConfigError, match="threads"):
        find_lambda0(hirz1, sphere_samples=200, seed=3, threads=3)


def test_scan_not_found_when_schedule_exhausted():
    fs1 = fubini_study_chart(1)
    model = product_model(fs1, fs1)
    scan = find_lambda0(model, lambda_schedule=(-40.0, -35.0), margin=1e-3, seed=0)
    assert not scan.found
    assert scan.lambda0 is None
    assert scan.as_dict()["lambda0"] == "NotFound"
    assert len(scan.records) == 2


def test_scan_bisection_tightens_threshold(prod):
    scan = find_lambda0(prod, lambda_schedule=(-31.0, 0.0), seed=0)
    assert scan.found
    assert scan.lambda0 == -15.5  # the midpoint already passes
    assert scan.records[-1]["lambda"] == -15.5


# A schedule whose first two lambdas put h_lambda of prod:fs1:fs1 at the
# positive-definiteness floor: the gate cuts the first at its second or
# third point, the second at its first or third (seeds 0 and 5).
CUT_SCHEDULE = (-26.9, -27.0, 0.0)


@pytest.fixture(scope="module")
def registry_fibrations():
    return {mid: resolve_model(mid).fibration for mid in ("hirz:1", "hirz:2", "hirz:3", "prod:fs1:fs1")}


@pytest.mark.parametrize("samples", [100, 200])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize(
    "model_id,schedule",
    [
        ("hirz:1", DEFAULT_LAMBDA_SCHEDULE),
        ("hirz:2", DEFAULT_LAMBDA_SCHEDULE),
        ("hirz:3", DEFAULT_LAMBDA_SCHEDULE),
        ("prod:fs1:fs1", DEFAULT_LAMBDA_SCHEDULE),
        ("prod:fs1:fs1", CUT_SCHEDULE),
    ],
)
def test_block_scan_equals_the_per_point_scan(registry_fibrations, model_id, schedule, samples, seed, monkeypatch):
    """find_lambda0 with one block read per lambda gives the threshold and
    the records, floats and all, of gating and reading one point at a
    time."""
    model = registry_fibrations[model_id]
    got = find_lambda0(model, sphere_samples=samples, lambda_schedule=schedule, seed=seed)
    monkeypatch.setattr(fibration, "_scan", point_scan)
    want = find_lambda0(model, sphere_samples=samples, lambda_schedule=schedule, seed=seed)
    assert got.lambda0 == want.lambda0
    assert got.records == want.records
    if schedule == CUT_SCHEDULE:
        assert [r["positive_definite"] for r in got.records[:2]] == [False, False]


def _counting(calls, name, fn):
    def counting(*args):
        calls[name] += 1
        return fn(*args)

    return counting


def test_each_scanned_lambda_is_one_solve_and_one_assembly(registry_fibrations, monkeypatch):
    """hirz:2 scans lambda = 0, 1, 2 and then bisects at 1.5."""
    calls = {"solve_points": 0, "assemble_rows": 0, "curvature_tensor": 0}
    for name in calls:
        monkeypatch.setattr(models, name, _counting(calls, name, getattr(models, name)))
    scan = find_lambda0(registry_fibrations["hirz:2"], sphere_samples=200, seed=0)
    assert [r["lambda"] for r in scan.records] == [0.0, 1.0, 2.0, 1.5]
    assert calls == {"solve_points": len(scan.records), "assemble_rows": len(scan.records), "curvature_tensor": 0}


def _rejecting(k):
    """A gate that passes k points and rejects the next."""
    seen = []

    def gate(g):
        seen.append(g)
        return len(seen) <= k

    return gate


def _fs2_variant(points, rank_jump=None, nan_d=None, nan_dd=None):
    """fs:2 with G losing rank exactly at points[rank_jump], dG non-finite
    at points[nan_d] and d dbar G non-finite at points[nan_dd], each of them
    when given; the derivative kernels count the rows they read."""
    fs2 = fubini_study_chart(2)
    rows = {"d": [], "dd": []}

    def at(ws, i):
        return np.zeros(len(ws), bool) if i is None else (ws == points[i]).all(axis=1)

    def stack_fn(ws):
        g = fs2.stack_fn(ws).copy()
        jump = at(ws, rank_jump)
        g[jump, 1] = g[jump, :, 1] = 0.0
        return g

    def d_fn(ws):
        rows["d"].append(len(ws))
        d = fs2.d_fn(ws).copy()
        d[at(ws, nan_d)] = np.nan
        return d

    def dd_fn(ws):
        rows["dd"].append(len(ws))
        dd = fs2.dd_fn(ws).copy()
        dd[at(ws, nan_dd)] = np.nan
        return dd

    field = ChartField(2, 2, stack_fn, radius=fs2.radius, d_fn=d_fn, dd_fn=dd_fn, self_check=False)
    return field, rows


SCAN_ARGS = (0.7, 8, 5, [4], 5, (-1.0,))


@pytest.mark.parametrize("k", [0, 1, 3, 7])
def test_a_gate_cut_solves_only_the_leading_points(k):
    """A gate that rejects point k makes the scan return None after one
    solve and one assembly of the k points before it; no derivative of a
    later point is read."""
    field, rows = _fs2_variant(_draw(2, *SCAN_ARGS[:4])[0])
    assert models._scan(field, *SCAN_ARGS, gate=_rejecting(k)) is None
    assert rows == ({"d": [k], "dd": [k]} if k else {"d": [], "dd": []})
    assert point_scan(field, *SCAN_ARGS, gate=_rejecting(k)) is None


@pytest.mark.parametrize(
    "faults",
    [{"rank_jump": 1}, {"nan_d": 2}, {"nan_dd": 0, "rank_jump": 1}, {"nan_d": 1, "nan_dd": 0}],
    ids=["rank-jump", "nan-d", "dd-before-rank-jump", "dd-before-nan-d"],
)
def test_a_point_before_the_cut_raises_its_per_point_error(faults):
    """A point before the gate's cut whose solve or assembly fails raises
    the error, type and message, of reading the points one at a time, the
    first failing point's in point order."""
    field, _ = _fs2_variant(_draw(2, *SCAN_ARGS[:4])[0], **faults)
    with pytest.raises(HermitiaError) as got:
        models._scan(field, *SCAN_ARGS, gate=_rejecting(4))
    with pytest.raises(HermitiaError) as want:
        point_scan(field, *SCAN_ARGS, gate=_rejecting(4))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def test_zero_section_direction_minimum_is_flat(hirz1):
    """At w = 0 the curvature of h_0 has an exactly flat mixed direction."""
    curv = curvature_tensor(h_lambda(hirz1, 0.0), np.array([0.7, 0.0]))
    g = curv.form.gram
    assert abs(hsc_of_tensor(curv.tensor, g, np.array([1.0, 0.0])) - 2.0) < 1e-12
    assert abs(hsc_of_tensor(curv.tensor, g, np.array([0.0, 1.0])) - 2.0) < 1e-12
    rng = np.random.default_rng(7)
    best = np.inf
    for _ in range(10):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        _, h = _refine_direction(curv.tensor, g, v / np.linalg.norm(v), 150, sign=-1.0)
        best = min(best, h)
    assert -1e-10 < best < 1e-6


@pytest.mark.parametrize("k", [1, 2, 3])
def test_hirzebruch_origin_minimum_is_the_exact_value(k):
    """At z = 0 the minimum of H over directions of h_lambda(hirz:k) is
    m_k(lambda) = 2 - 2 (1 + k u)^2 / (1 + (2k + 1) u), u = e^-lambda:
    12 seeded starts of the direction walk, 400 steps each, reach it to
    1e-9."""
    model = hirzebruch_model(k)
    rng = np.random.default_rng(np.random.SeedSequence([61, k]))
    for lam in (0.0, 0.5, 1.0, 1.5, 3.5):
        curv = curvature_tensor(h_lambda(model, lam), np.zeros(2))
        best = np.inf
        for _ in range(12):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            best = min(best, _refine_direction(curv.tensor, curv.form.gram, v, 400, sign=-1.0)[1])
        u = np.exp(-lam)
        exact = 2.0 - 2.0 * (1.0 + k * u) ** 2 / (1.0 + (2 * k + 1) * u)
        assert abs(best - exact) <= 1e-9, (lam, best, exact)


def test_h_lambda_stays_torsion_free(prod, hirz1):
    z = np.array([0.2 + 0.1j, 0.3 - 0.2j])
    assert torsion_defect(h_lambda(prod, 2.0), z) <= 1e-6
    assert torsion_defect(h_lambda(hirz1, 2.0), z) <= 1e-6


# ---------------------------------------------------------------------------
# registry integration


def test_registry_product_model():
    entry = resolve_model("prod:fs1:fs1")
    assert entry.kind == "fibration"
    assert isinstance(entry.fibration, FibrationModel)
    assert entry.fibration.total_m == 2


def test_registry_hirzebruch_model():
    entry = resolve_model("hirz:1")
    assert entry.kind == "fibration"
    assert entry.fibration.name == "hirz:1"


@pytest.mark.parametrize("bad", ["hirz:-1", "prod:fs1", "prod:gr24:fs1", "hirz:x"])
def test_registry_rejects_bad_fibrations(bad):
    with pytest.raises(ConfigError):
        resolve_model(bad)
