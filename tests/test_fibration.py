import copy
import re

import numpy as np
import pytest

from hermitia import (
    ConfigError,
    HermitiaError,
    NonFinite,
    NotPositive,
    NotPositiveAtPoint,
    OutOfDomain,
    RankJump,
    charts,
    cli,
    fibration,
    models,
)
from hermitia.charts import ChartField, FieldAt, curvature_tensor, hsc_of_tensor, torsion_defect
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
from hermitia.fields import (
    MatrixPolynomial,
    constant_field,
    embedded_factor_field,
    from_factor,
    scaled_field,
    sum_field,
)
from hermitia.models import _draw, _refine_direction, fubini_study_chart, resolve_model
from hermitia.sequences import SumAt, sum_curvature

import oracles
from oracles import is_pd, point_scan


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
    original = charts.assemble_rows

    def counted(field, zs, solves):
        calls.extend([field.shape] * len(zs))
        return original(field, zs, solves)

    monkeypatch.setattr(charts, "assemble_rows", counted)
    grid = vertical_grid(n=3)
    rep = vertical_hsc_check(model, grid)
    assert calls.count(model.fiber_dim) == len(grid)
    assert calls.count(model.total_m) == len(grid) * len(rep.lambdas)


def test_vertical_check_reads_each_fiber_gram_4m_plus_1_times(hirz1, monkeypatch):
    """The fiber field lives on the whole chart, so its gate reads the
    4m + 1 points of the stencil with m the total dimension."""
    original = fibration.vertical_field
    reads = []

    def counted_vertical(model):
        base = original(model)

        def counted(zs):
            reads.extend(zs)
            return base.stack_fn(zs)

        return ChartField(base.m, base.shape, counted, center=base.center, radius=base.radius,
                          d_fn=base.d_fn, dd_fn=base.dd_fn, self_check=False)

    monkeypatch.setattr(fibration, "vertical_field", counted_vertical)
    grid = vertical_grid(n=3)
    vertical_hsc_check(hirz1, grid)
    assert len(reads) == len(grid) * (4 * hirz1.total_m + 1)


def test_vertical_check_rejects_a_fiber_that_is_not_positive(hirz1):
    model = copy.copy(hirz1)
    model.b1_field = scaled_field(hirz1.b1_field, -1.0)
    with pytest.raises(NotPositiveAtPoint, match="fiber metric is not positive-definite"):
        vertical_hsc_check(model, vertical_grid(n=2))


def test_vertical_check_on_an_empty_grid_is_a_config_error(hirz1, monkeypatch):
    """A grid with no point scores nothing, so no report is made: the
    error names the empty grid and comes before any read of b1."""
    monkeypatch.setattr(fibration, "vertical_field", lambda model: pytest.fail("read a field"))
    with pytest.raises(ConfigError, match="empty grid"):
        vertical_hsc_check(hirz1, [])


# Relative bound between the curvature of the vertical sub-bundle and the
# per-point fiber oracle: tensor, Gram matrix and H.
FIBER_ORACLE_TOL = 1e-14


@pytest.mark.parametrize("model_id", ["hirz:1", "hirz:2", "hirz:3", "prod:fs1:fs1", "prod:fs2:fs1", "prod:fs1:fs2"])
def test_vertical_field_curvature_equals_the_per_point_fiber_oracle(model_id):
    """On vertical index pairs, the curvature of b1 on the vertical
    sub-bundle at (z_B, w) is the curvature of the fiber over z_B at w,
    at seeded points of the 0.7 region and on the zero section w = 0."""
    model = resolve_model(model_id).fibration
    fiber, v = fibration.vertical_field(model), model.vertical
    rng = np.random.default_rng(np.random.SeedSequence([67]))
    dirs = models._unit_directions(rng, model.fiber_dim, 4)
    points = [models._sample_polydisc(rng, model.total_m, 0.7) for _ in range(5)]
    points.append(np.where(np.arange(model.total_m) < model.base_dim, points[0], 0.0))
    for z in points:
        got = charts.metric_curvature(fiber, z)
        want = charts.metric_curvature(oracles.fiber_field(model_id, z[: model.base_dim]), z[v])
        pairs = (
            (got.tensor[v, v], want.tensor),
            (got.form.gram, want.form.gram),
            (hsc_of_tensor(got.tensor[v, v], got.form.gram, dirs), hsc_of_tensor(want.tensor, want.form.gram, dirs)),
        )
        for a, b in pairs:
            assert np.linalg.norm(a - b) <= FIBER_ORACLE_TOL * np.linalg.norm(b)


def test_a_model_of_b1_and_b2_alone_reports_computed_gaps(hirz1):
    """The fiber comes from b1, so a model built from hirz:1's two fields
    reports the same vertical check as hirz:1, gaps included."""
    bare = FibrationModel(1, 1, hirz1.b1_field, hirz1.b2_field)
    grid = vertical_grid(n=3)
    assert vertical_hsc_check(bare, grid) == vertical_hsc_check(hirz1, grid)


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
    """hirz:2 scans lambda = 0, 1, 2 and then bisects at 1.5.  Each
    scanned lambda reads h_lambda once, G at the gate stencils of its n
    points, n(4m + 1) rows, whose centre rows the gate tests, and makes
    one solve_rows and one assemble_rows, and no curvature_tensor call."""
    model = registry_fibrations["hirz:2"]
    calls = {"solve_rows": 0, "assemble_rows": 0, "curvature_tensor": 0}
    monkeypatch.setattr(charts, "solve_rows", _counting(calls, "solve_rows", charts.solve_rows))
    for name in ("assemble_rows", "curvature_tensor"):
        monkeypatch.setattr(models, name, _counting(calls, name, getattr(models, name)))
    gram_stack, rows = ChartField.gram_stack, []

    def counting(field, zs):
        if ".h(" in field.name:
            rows.append(len(zs))
        return gram_stack(field, zs)

    monkeypatch.setattr(ChartField, "gram_stack", counting)
    scan = find_lambda0(model, sphere_samples=200, seed=0)
    assert [r["lambda"] for r in scan.records] == [0.0, 1.0, 2.0, 1.5]
    k = len(scan.records)
    n = 200 // fibration.LAMBDA_SCAN_DIRECTIONS
    assert rows == [n * (4 * model.total_m + 1)] * k
    assert calls == {"solve_rows": k, "assemble_rows": k, "curvature_tensor": 0}


def test_a_one_row_record_at_the_zero_section_solves_once(hirz1, monkeypatch):
    """b1 of hirz:1 jumps in rank on the zero section w = 0.  Its one-row
    record there raises RankJump from one solve, which reads G once, at
    its gate stencil, and dG nowhere; so does the stacked solve of that
    one point.  r_lambda_decomposed there, whose summand route meets the
    jump, makes no one-field solve: it reads each summand's kernels once,
    G at the 4m + 1 gate points and dG and d dbar G at z, which its sum
    row, solved alone after the b1 row stops at the gate, takes too."""
    z = np.array([0.3 + 0.1j, 0.0])
    calls = {"solve_rows": 0, "gram_stack": 0, "d_stack": 0}
    monkeypatch.setattr(charts, "solve_rows", _counting(calls, "solve_rows", charts.solve_rows))
    for name in ("gram_stack", "d_stack"):
        monkeypatch.setattr(ChartField, name, _counting(calls, name, getattr(ChartField, name)))
    for read in (lambda: curvature_tensor(hirz1.b1_field, z), lambda: charts.solve_points(hirz1.b1_field, z[None])):
        calls.update(dict.fromkeys(calls, 0))
        with pytest.raises(RankJump, match="rank 1 at"):
            read()
        assert calls == {"solve_rows": 1, "gram_stack": 1, "d_stack": 0}
    calls["solve_rows"] = 0
    rows = {}
    for summand in (hirz1.b1_field, hirz1.b2_field):
        for kernel in ("stack_fn", "d_fn", "dd_fn"):
            read = getattr(summand, kernel)

            def counting(zs, read=read, key=(summand.name, kernel)):
                rows.setdefault(key, []).append(len(zs))
                return read(zs)

            monkeypatch.setattr(summand, kernel, counting)
    assert not r_lambda_decomposed(hirz1, 0.5, z).applicable
    assert calls["solve_rows"] == 0
    gate = 4 * hirz1.total_m + 1
    assert rows == {
        (summand.name, kernel): [gate if kernel == "stack_fn" else 1]
        for summand in (hirz1.b1_field, hirz1.b2_field)
        for kernel in ("stack_fn", "d_fn", "dd_fn")
    }


def _r_lambda_per_field(model, lam, z):
    """r_lambda_decomposed one field record at a time: h_lambda's record,
    its form read first for the finite and positive-definite tests, then
    its tensor, then the summands' records and the per-pair loop (a rank
    jump there makes the formula route not applicable).  Returns
    (direct, formula, residual, applicable)."""
    direct = FieldAt(h_lambda(model, lam), z)
    if not is_pd(direct.form.gram, fibration.PD_FLOOR):
        raise NotPositive("h_lambda is not positive-definite at the point")
    tensor = direct.tensor
    try:
        formula = oracles.per_field_sum(model.b1_field, scaled_field(model.b2_field, np.exp(lam)), z)
    except RankJump:
        return tensor, None, None, False
    residual = np.linalg.norm(formula - tensor) / (1.0 + np.linalg.norm(tensor))
    return tensor, formula, float(residual), True


def _r_lambda(model, lam, z):
    rec = r_lambda_decomposed(model, lam, z)
    return rec.direct, rec.formula, rec.residual, rec.applicable


DECOMPOSITION_LAMBDAS = (0.0, 0.5, 2.0, 6.0, 12.0)


@pytest.mark.parametrize("model_id", ["hirz:1", "hirz:2", "hirz:3", "prod:fs1:fs1"])
def test_the_decomposition_rows_equal_the_per_field_route(registry_fibrations, model_id):
    """At seeded points of region 0.7 (and, on hirz, one on the zero
    section, where b1 jumps in rank) and lambda in
    DECOMPOSITION_LAMBDAS, every row the sum record of (b1, e^lambda b2)
    solves equals its field's own curvature_tensor record bit for bit, or
    raises its error, its sum row is h_lambda's record, and
    r_lambda_decomposed returns or raises what the per-field route does."""
    model = registry_fibrations[model_id]
    points = list(_draw(model.total_m, 0.7, 4, 1, [61])[0])
    if model_id.startswith("hirz"):
        points.append(np.array([0.3 + 0.1j, 0.0]))
    kinds = set()
    for z in points:
        for lam in DECOMPOSITION_LAMBDAS:
            rec = SumAt(model.b1_field, scaled_field(model.b2_field, np.exp(lam)), z)
            assert oracles.sum_record_matches(rec), (z, lam)
            assert oracles.same(rec.direct, curvature_tensor(h_lambda(model, lam), z).tensor), (z, lam)
            want = oracles.outcome(lambda: _r_lambda_per_field(model, lam, z))
            assert oracles.same(oracles.outcome(lambda: _r_lambda(model, lam, z)), want), (z, lam)
            kinds.add(want[3])
    assert kinds == ({False, True} if model_id.startswith("hirz") else {True})


def _nan_at(field, z):
    """``field`` with G read as NaN at the point z."""
    def stack_fn(ws):
        g = field.stack_fn(ws).copy()
        g[(ws == z).all(axis=1)] = np.nan
        return g

    return ChartField(field.m, field.shape, stack_fn, radius=field.radius, d_fn=field.d_fn,
                      dd_fn=field.dd_fn, self_check=False)


def _sum_jump_pair(p):
    """Two rank-one fields on a line whose sum has rank two except at
    the point p, where it drops to one: the constant e1 e1^H and l^H l
    with l(z) = (1, z - p).  Each summand keeps its rank everywhere."""
    b1 = constant_field(np.diag([1.0, 0.0]), 1, radius=1.0)
    factor = MatrixPolynomial([[1.0, -p], [0.0, 0.0]], c1=[[[0.0, 1.0], [0.0, 0.0]]])
    return b1, from_factor(factor, 1, radius=1.0)


def test_the_decomposition_errors_match_the_per_field_route(hirz1):
    """The error table of sum_curvature and r_lambda_decomposed: each
    raises the type and the message the per-field route raises first, or
    returns what it returns, and r_lambda_decomposed's direct route is
    present where the summand route is not applicable."""
    zero_section = np.array([0.3 + 0.1j, 0.0])
    z = np.array([0.2 + 0.1j, 0.3 - 0.2j])
    nan_model = FibrationModel(1, 1, _nan_at(hirz1.b1_field, z), hirz1.b2_field, name="nan")
    not_pd = FibrationModel(1, 1, fiber_only_field(), constant_field(np.zeros((2, 2)), 2, radius=2.0))
    outside = np.array([2.5 + 0.0j, 0.3])
    cases = [
        (hirz1, 0.5, zero_section, False),
        (nan_model, 0.0, z, NonFinite),
        (not_pd, 1.0, np.array([0.1, 0.1]), NotPositive),
        (hirz1, 2.0, outside, OutOfDomain),
    ]
    for model, lam, w, want_kind in cases:
        want = oracles.outcome(lambda: _r_lambda_per_field(model, lam, w))
        got = oracles.outcome(lambda: _r_lambda(model, lam, w))
        assert oracles.same(got, want), (model.name, lam, w)
        assert (want[0] if isinstance(want[0], type) else want[3]) == want_kind
        b2 = scaled_field(model.b2_field, np.exp(lam))
        want = oracles.outcome(lambda: oracles.per_field_sum(model.b1_field, b2, w))
        assert oracles.same(oracles.outcome(lambda: sum_curvature(model.b1_field, b2, w).tensor), want)
    assert not r_lambda_decomposed(hirz1, 0.5, zero_section).applicable
    # a sum whose own gate jumps in rank while both summands pass
    p = 0.2
    b1, b2 = _sum_jump_pair(p)
    w = np.array([p - 1e-3 + 0.0j])
    rec = sum_curvature(b1, b2, w)
    assert oracles.same(rec.tensor, oracles.per_field_sum(b1, b2, w))
    want = oracles.outcome(lambda: curvature_tensor(sum_field(b1, b2), w))
    assert want[0] is RankJump
    assert oracles.same(oracles.outcome(lambda: rec.direct), want)
    assert oracles.sum_record_matches(rec)


def test_the_sum_record_reads_through_the_sum_field_where_it_reads_otherwise(hirz1):
    """With a summand by finite differences the sum field is one too, and
    with a summand of another gate step the sum's gate stencil is not the
    summand's: the sum row then reads through its own field.  Off and on
    the zero section of hirz:1 every row still equals its field's own
    record bit for bit, or raises its error, which names the gate
    neighbor at the step of that row's field."""
    b1, b2 = hirz1.b1_field, hirz1.b2_field
    wide = ChartField(2, 2, b1.stack_fn, radius=b1.radius, d_fn=b1.d_fn, dd_fn=b1.dd_fn,
                      fd_outer_step=2e-3, self_check=False)
    pairs = [(b1.finite_difference_copy(), b2), (b1, b2.finite_difference_copy()), (wide, b2)]
    for z in (np.array([0.2 + 0.1j, 0.3 - 0.2j]), np.array([0.3 + 0.1j, 0.0])):
        for pair in pairs:
            rec = SumAt(*pair, z)
            assert oracles.sum_record_matches(rec), (pair[0].analytic, pair[1].analytic, z)
    rows = oracles.sum_record_rows(SumAt(wide, b2, np.array([0.3 + 0.1j, 0.0])))
    assert rows[0][0] is RankJump and rows[0][1].endswith("neighbor [0.300000+0.100000j 0.002000+0.000000j]")


@pytest.mark.parametrize("lam", [800.0, np.nan, np.inf, -np.inf])
def test_a_lambda_without_a_finite_exponential_is_a_config_error(hirz1, lam, recwarn):
    """A lambda whose e^lambda is not a finite float (above LAMBDA_MAX,
    or not a finite number) raises ConfigError naming it before any
    read, in h_lambda, r_lambda_decomposed and find_lambda0, which checks
    its whole schedule before the first scan; the CLI's bound is the
    same one."""
    z = np.array([0.2 + 0.1j, 0.3 - 0.2j])
    message = re.escape("lambda = %r" % lam)
    with pytest.raises(ConfigError, match=message):
        h_lambda(hirz1, lam)
    with pytest.raises(ConfigError, match=message):
        r_lambda_decomposed(hirz1, lam, z)
    with pytest.raises(ConfigError, match=message):
        find_lambda0(hirz1, lambda_schedule=(12.0, lam))
    assert not recwarn.list
    assert cli.LAMBDA_MAX == fibration.LAMBDA_MAX
    assert np.isfinite(np.exp(fibration.LAMBDA_MAX))
    assert fibration.lambda_checked(fibration.LAMBDA_MAX) == fibration.LAMBDA_MAX


def test_the_gate_tests_a_block_in_one_eigvalsh(registry_fibrations, monkeypatch):
    """find_lambda0 gates each scanned lambda's block of points with one
    _pd_rows call on the whole block, not one per point."""
    rows, pd_rows = [], fibration._pd_rows

    def counting(grams, floor):
        rows.append(len(grams))
        return pd_rows(grams, floor)

    monkeypatch.setattr(fibration, "_pd_rows", counting)
    scan = find_lambda0(registry_fibrations["hirz:2"], sphere_samples=200, seed=0)
    assert rows == [200 // fibration.LAMBDA_SCAN_DIRECTIONS] * len(scan.records)


def test_the_stacked_pd_test_equals_the_per_matrix_test(registry_fibrations):
    """_pd_rows of a stack equals the per-matrix oracle is_pd of each
    matrix: on the centres of a gated scan, with one of them not
    positive."""
    model = registry_fibrations["hirz:1"]
    field = fibration.h_lambda(model, 0.0)
    grams = field.gram_stack(_draw(field.m, 0.7, 10, 5, [0])[0])
    grams[3] = np.diag([1.0, -1.0])
    want = [is_pd(g, fibration.PD_FLOOR) for g in grams]
    assert want[3] is False
    assert want == list(fibration._pd_rows(grams, fibration.PD_FLOOR))


@pytest.mark.parametrize("n", [2, 3])
def test_a_non_finite_gram_before_the_cut_raises_non_finite_naming_its_point(n):
    """fs:n with G read as NaN on its diagonal at scan point 2, under the
    positive-definite gate of find_lambda0: the gated scan raises the
    per-point scan's NonFinite naming that point, where the gate once
    read the NaN matrix as not positive-definite (2 x 2) or raised
    numpy's LinAlgError (3 x 3)."""
    fs = fubini_study_chart(n)
    args = (0.7, 8, 5, [4], 5, (-1.0,))
    points = _draw(n, *args[:4])[0]

    def stack_fn(ws):
        g = fs.stack_fn(ws).copy()
        g[(ws == points[2]).all(axis=1), 1, 1] = np.nan
        return g

    field = ChartField(n, n, stack_fn, radius=fs.radius, d_fn=fs.d_fn, dd_fn=fs.dd_fn, self_check=False)

    def gate(grams):
        return fibration._pd_rows(grams, fibration.PD_FLOOR)

    with pytest.raises(NonFinite) as got:
        models._scan(field, *args, gate=gate)
    with pytest.raises(NonFinite) as want:
        point_scan(field, *args, gate=gate)
    assert str(got.value) == str(want.value)
    assert np.array2string(points[2], precision=3) in str(got.value)


def test_a_non_finite_gram_before_the_pd_test_raises_non_finite(hirz1):
    """A NaN in b1 at z makes r_lambda_decomposed raise NonFinite naming
    z, and a fiberwise form read as NaN everywhere makes the model's
    construction raise NonFinite, before the positive-definite test reads
    either."""
    z = np.array([0.2 + 0.1j, 0.3 - 0.2j])
    b1, b2 = hirz1.b1_field, hirz1.b2_field

    def stack_fn(ws):
        g = b1.stack_fn(ws).copy()
        g[(ws == z).all(axis=1)] = np.nan
        return g

    nan_at_z = ChartField(2, 2, stack_fn, radius=b1.radius, d_fn=b1.d_fn, dd_fn=b1.dd_fn, self_check=False)
    model = FibrationModel(1, 1, nan_at_z, b2, name="nan")
    with pytest.raises(NonFinite, match=re.escape(np.array2string(z, precision=3))):
        r_lambda_decomposed(model, 0.0, z)
    nan = ChartField(2, 2, lambda ws: np.full((len(ws), 2, 2), np.nan), radius=b1.radius, self_check=False)
    with pytest.raises(NonFinite):
        FibrationModel(1, 1, nan, b2)


def _rejecting(field, points, k):
    """A gate that rejects G at points[k] and at every later point, each
    Gram matrix tested on its own, as the gate of a scan must be."""
    rejected = field.gram_stack(points[k:])

    def gate(grams):
        return ~(grams[:, None] == rejected[None]).all(axis=(-2, -1)).any(axis=1)

    return gate


def _fs2_variant(points, rank_jump=None, nan_d=None, nan_dd=None, nan_g=None, negative=None):
    """fs:2 with G losing rank exactly at points[rank_jump], dG non-finite
    at points[nan_d], d dbar G non-finite at points[nan_dd], G non-finite
    at points[nan_g] and G negated within 0.01 of points[negative], the
    gate stencil of that point included (so its curvature reads, and each
    of its directions scores NotPositive), each of them when given; the
    derivative kernels count the rows they read."""
    fs2 = fubini_study_chart(2)
    rows = {"d": [], "dd": []}

    def at(ws, i):
        return np.zeros(len(ws), bool) if i is None else (ws == points[i]).all(axis=1)

    def stack_fn(ws):
        g = fs2.stack_fn(ws).copy()
        jump = at(ws, rank_jump)
        g[jump, 1] = g[jump, :, 1] = 0.0
        g[at(ws, nan_g), 1, 1] = np.nan
        if negative is not None:
            near = (np.abs(ws - points[negative]) < 0.01).all(axis=1)
            g[near] = -g[near]
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
    """A gate that rejects point k of 8 makes the scan return None after
    at most log2(8) = 3 solves and assemblies, each of leading points
    before k, the last of all k of them; no derivative of point k or of a
    later point is read."""
    points = _draw(2, *SCAN_ARGS[:4])[0]
    field, rows = _fs2_variant(points)
    assert models._scan(field, *SCAN_ARGS, gate=_rejecting(field, points, k)) is None
    assert rows["d"] == rows["dd"] and len(rows["d"]) <= 3
    assert all(n <= k for n in rows["d"]) and rows["d"][-1:] == ([k] if k else [])
    assert point_scan(field, *SCAN_ARGS, gate=_rejecting(field, points, k)) is None


@pytest.mark.parametrize(
    "faults",
    [{"rank_jump": 1}, {"nan_d": 2}, {"nan_dd": 0, "rank_jump": 1}, {"nan_d": 1, "nan_dd": 0}],
    ids=["rank-jump", "nan-d", "dd-before-rank-jump", "dd-before-nan-d"],
)
def test_a_point_before_the_cut_raises_its_per_point_error(faults):
    """A point before the gate's cut whose solve or assembly fails raises
    the error, type and message, of reading the points one at a time, the
    first failing point's in point order."""
    points = _draw(2, *SCAN_ARGS[:4])[0]
    field, _ = _fs2_variant(points, **faults)
    with pytest.raises(HermitiaError) as got:
        models._scan(field, *SCAN_ARGS, gate=_rejecting(field, points, 4))
    with pytest.raises(HermitiaError) as want:
        point_scan(field, *SCAN_ARGS, gate=_rejecting(field, points, 4))
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


def _scan_outcome(scan):
    """The outcome (:func:`oracles.outcome`) of a scan, its extremes as
    tuples so that :func:`oracles.same` compares them bit for bit."""
    found = oracles.outcome(scan)
    return tuple(map(tuple, found)) if isinstance(found, list) else found


@pytest.mark.parametrize("negative,nan_dd", [(1, 3), (3, 1), (2, None)])
def test_an_ungated_scan_raises_the_first_error_in_point_order(negative, nan_dd):
    """Without a gate, a point whose directions are rejected (NotPositive)
    and a later point whose read fails raise the earlier point's error,
    type and message, as the per-point scan does: the points read before
    a read error are scored before it is raised."""
    points = _draw(2, *SCAN_ARGS[:4])[0]
    field, _ = _fs2_variant(points, negative=negative, nan_dd=nan_dd)
    got = _scan_outcome(lambda: models._scan(field, *SCAN_ARGS))
    assert oracles.same(got, _scan_outcome(lambda: point_scan(field, *SCAN_ARGS)))
    assert got[0] is (NotPositive if nan_dd is None or negative < nan_dd else NonFinite)


def _edge_draw():
    """A seed key whose 8 points of region 2.2 put the first point past
    the edge of fs:2's chart (radius 2, less the gate's margin) mid-block,
    with that point's index and the points."""
    fs2 = fubini_study_chart(2)
    for key in range(100):
        points = _draw(2, 2.2, 8, 5, [key])[0]
        inside = fs2.in_domain(points, fs2.fd_outer_step + fs2.fd_step)
        k = int(np.argmin(inside))
        if 2 <= k <= 5 and not inside[k]:
            return [key], k, points
    raise AssertionError("no seed key in range(100) puts the edge mid-block")


@pytest.mark.parametrize(
    "faults",
    [{}, {"rejected": -1}, {"rejected": 0}, {"rejected": 1}, {"nan_g": -1}, {"nan_g": 1}],
    ids=["edge", "reject-before", "reject-at", "reject-after", "nan-before", "nan-after"],
)
def test_a_gated_scan_meets_the_chart_edge_where_the_per_point_scan_does(faults):
    """A point past the chart's edge mid-block, with a gate rejection or
    a non-finite G just before it, at it or just after it: the gated
    scan returns None or raises the error, type and message, of checking
    the points one at a time, whose order is finite G, the gate, then the
    chart's domain."""
    key, k, points = _edge_draw()
    args = (2.2, 8, 5, key, 5, (-1.0,))
    nan_g = k + faults["nan_g"] if "nan_g" in faults else None
    field, _ = _fs2_variant(points, nan_g=nan_g)
    if "rejected" in faults:
        gate = _rejecting(field, points, k + faults["rejected"])
    else:
        def gate(grams):
            return np.ones(len(grams), bool)

    got = _scan_outcome(lambda: models._scan(field, *args, gate=gate))
    assert oracles.same(got, _scan_outcome(lambda: point_scan(field, *args, gate=gate)))
    if faults.get("rejected", 1) <= 0:
        assert got is None
    else:
        assert got[0] is (NonFinite if faults.get("nan_g") == -1 else OutOfDomain)


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
