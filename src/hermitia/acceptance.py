"""Bundled acceptance checks.

Each criterion exercises one advertised guarantee of the package end to
end, at a fixed tolerance and, where one is stated, a wall-clock
budget.  A criterion never raises for a measured miss.  It adds each
clause to a :class:`~hermitia.report.Report` as one record and returns
a CriterionResult, whose ``details`` (each record's value under its
name) and ``failures`` (one line for each failed clause) derive from
those records, so the CLI can render a table and the test suite can
assert on it.

Every clause is passed by the one gate rule of ``Report.add``: a record
passes iff its residual is at most its tolerance, so a NaN residual
fails; a clause that is a yes/no test states its ``passed`` instead.
Each worst-over-the-suite residual is a :func:`~hermitia.report.worst_of`,
which keeps a NaN.

All randomness is seeded inside the criterion bodies, so two runs on the
same machine produce identical numbers.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np

from . import instances
from .charts import curvature_tensor, gauge_independence_residual, hsc, sample_box
from .fields import constant_field
from .fibration import find_lambda0, hirzebruch_model, product_model
from .forms import (
    HermitianForm,
    LinearMap,
    Subspace,
    adjoint,
    admits_adjoint,
    kernel,
    limit_form,
    orthogonal_complement,
    quotient_form,
    rank_of,
    sum_quotient_form,
)
from .instances import _cnormal
from .models import (
    einstein_residual,
    fubini_study_chart,
    grassmannian_chart,
    hsc_extremes,
    pluecker_gap,
)
from .report import Report, worst_of
from .sequences import (
    ExactSeqChart,
    _contract,
    codazzi_quot,
    codazzi_sub,
    demailly_residuals,
    sum_curvature,
)


# The gates of the criteria, each a bound on the quantity named (relative
# where the criterion's docstring says so): a clause passes iff its
# quantity is at most the gate, so a NaN fails.  LIMIT_EXACT_CUT and
# SPAN_RANK_TOL are cuts that decide what is measured, not gates.
CALIBRATION_TOL = 1e-5  # |H - 2| of the round line metric, analytic jets
CALIBRATION_FD_TOL = 1e-3  # the same through the finite-difference copy
WINDOW_LOWER_TOL = 0.025  # refined min H to the declared Gr(2, 4) lower bound
WINDOW_UPPER_TOL = 0.02  # refined max H to the declared upper bound
WINDOW_ESCAPE_TOL = 1e-3  # sampled H outside the declared window
EINSTEIN_TOL = 1e-6  # Ricci minus the Einstein constant times the metric
CHART_ROUTES_TOL = 1e-8  # closed-form and minor-embedding Gr(2, 4) Grams
LINE_CURVATURE_TOL = 1e-9  # tautological line: sub curvature -1, quotient +1
CODAZZI_SUITE_TOL = 1e-4  # corrected ambient pairing to intrinsic curvature
SUM_SUITE_TOL = 1e-4  # assembled to direct curvature of a sum of forms
GAUGE_TOL = 1e-6  # curvature change under a kernel-valued gauge
IDENTITY_TOL = 1e-5  # each line of the derivative identity table
LIMIT_EXACT_CUT = 1e-13  # below this the quotient family is exact: no rate
DECAY_RATIO_TOL = 0.2  # drift of the error ratio from exp(-2)
PROJECTION_FORMULA_TOL = 1e-8  # limit form to its projection formula
ADJOINT_IDENTITY_TOL = 1e-9  # b_V f^dag - f^H b_W
TORSOR_IDENTITY_TOL = 1e-8  # the same for an adjoint moved by the kernel
TORSOR_KERNEL_TOL = 1e-10  # difference of two adjoints outside Ker b_V
DOUBLE_ADJOINT_TOL = 1e-8  # f^dag dag - f modulo Ker b_W
SPAN_RANK_TOL = 1e-9  # rank_of cutoff of the complement decomposition spans
QUOTIENT_LIFT_TOL = 1e-9  # descended form against the form it came from
KERNEL_CONTAINMENT_TOL = 1e-9  # sum quotient on the summand kernels


@dataclass
class CriterionResult:
    """One run of a criterion: its clauses as the records of ``report``,
    with the details and failures derived from them."""

    number: int
    name: str
    elapsed: float
    report: Report

    @property
    def passed(self):
        return self.report.passed

    @property
    def details(self):
        """Each clause's value under its record's name."""
        return {r["name"]: r["value"] for r in self.report.records if "value" in r}

    @property
    def failures(self):
        """One line for each clause that failed its gate."""
        return [_failure(r) for r in self.report.records if not r["passed"]]


def _failure(record):
    if "residual" in record:
        return "%s: residual %.3g is not within %g" % (
            record["name"], record["residual"], record["tolerance"])
    return "%s: check failed at %r" % (record["name"], record.get("value"))


def _criterion(number, name, budget=None):
    """Run the decorated body on a fresh Report of its clauses and time
    it; a budget in seconds adds the run time as one more gated record."""
    def wrap(body):
        @functools.wraps(body)
        def run():
            report = Report(name, {})
            t0 = time.perf_counter()
            body(report)
            elapsed = time.perf_counter() - t0
            if budget is not None:
                report.add("runtime_s", residual=elapsed, tolerance=budget)
            return CriterionResult(number, name, elapsed, report)
        return run
    return wrap


@_criterion(1, "round metric calibration", budget=1.0)
def round_metric_calibration(report):
    """H is identically 2 for the round metric on the line chart.

    Checked on a 5x5 grid inside |z| <= 0.9, in the analytic mode to
    1e-5 and through the finite-difference copy of the same field to
    1e-3, all inside one second.
    """
    field = fubini_study_chart(1)
    side = np.linspace(-0.9 / np.sqrt(2.0), 0.9 / np.sqrt(2.0), 5)
    points = [np.array([x + 1j * y]) for x in side for y in side]
    v = np.ones(1, dtype=complex)
    for key, f, tol in (
        ("analytic_worst", field, CALIBRATION_TOL),
        ("finite_difference_worst", field.finite_difference_copy(), CALIBRATION_FD_TOL),
    ):
        worst = worst_of(abs(hsc(f, z, v) - 2.0) for z in points)
        report.add(key, value=worst, residual=worst, tolerance=tol)


@_criterion(2, "grassmannian curvature window", budget=30.0)
def grassmannian_curvature_window(report):
    """Sampled curvature extremes on the (2, 4) chart match its declared bounds.

    A 2000-sample scan with refinement must land within 0.025 of the
    declared lower bound and 0.02 of the declared upper bound, with no
    value escaping the declared window by more than 1e-3, in under 30 s.
    """
    model = grassmannian_chart(2, 4)
    scan = hsc_extremes(model.field, region=0.7, samples=2000, optimizer_steps=200, seed=0)
    low, high, lower, upper = scan.min_H, scan.max_H, model.hsc_lower, model.hsc_upper
    report.add("min_H", value=low, residual=abs(low - lower), tolerance=WINDOW_LOWER_TOL)
    report.add("min_H", value=low, residual=lower - low, tolerance=WINDOW_ESCAPE_TOL)
    report.add("max_H", value=high, residual=abs(high - upper), tolerance=WINDOW_UPPER_TOL)
    report.add("max_H", value=high, residual=high - upper, tolerance=WINDOW_ESCAPE_TOL)
    report.add("declared_lower", value=lower)
    report.add("declared_upper", value=upper)


@_criterion(3, "einstein constants")
def einstein_constants(report):
    """The three bundled homogeneous models satisfy their Einstein equations.

    Ricci minus the stated constant times the metric stays below 1e-6
    at ten seeded points for each model.
    """
    cases = (
        ("fs:1", fubini_study_chart(1), 2.0),
        ("fs:2", fubini_study_chart(2), 3.0),
        ("gr:2:4", grassmannian_chart(2, 4).field, 4.0),
    )
    for label, field, constant in cases:
        resid = einstein_residual(field, constant)
        report.add(label, value=resid, residual=resid, tolerance=EINSTEIN_TOL)


@_criterion(4, "two chart constructions agree")
def two_chart_constructions_agree(report):
    """The closed-form (2, 4) chart metric equals the minor-embedding route.

    Both Grams agree to a relative 1e-8 at twenty seeded points in the
    chart.
    """
    model = grassmannian_chart(2, 4)
    rng = np.random.default_rng(23)
    worst = pluecker_gap(model.field, 2, 4, [sample_box(rng, 4, 0.7) for _ in range(20)])
    report.add("worst_relative", value=worst, residual=worst, tolerance=CHART_ROUTES_TOL)


def _tautological_line():
    # the line (1, z) inside the trivially metrized plane
    return ExactSeqChart(
        constant_field(np.eye(2), 1, radius=2.0),
        lambda zs: np.stack([np.ones(len(zs)), zs[:, 0]], axis=1)[:, :, None],
        dj=lambda zs: np.repeat([[[[0.0], [1.0]]]], len(zs), axis=0),
        name="taut",
    )


def codazzi_instance_residual(seed):
    """Worst relative gap between corrected ambient curvature and the
    intrinsic curvature of the induced fields on one seeded instance."""
    seq, z = instances.sequence_instance(seed)
    r_s = curvature_tensor(seq.sub_field, z).tensor
    r_q = curvature_tensor(seq.quot_field, z).tensor
    rng = np.random.default_rng(1000 + seed)
    gaps = []
    for a in range(seq.m):
        for b in range(seq.m):
            s, t = _cnormal(rng, seq.k), _cnormal(rng, seq.k)
            got = codazzi_sub(seq, z, a, b, s, t)
            want = _contract(r_s[a, b], s, t)
            gaps.append(abs(got - want) / (1.0 + abs(want)))
            u, v = _cnormal(rng, seq.r - seq.k), _cnormal(rng, seq.r - seq.k)
            got = codazzi_quot(seq, z, a, b, u, v)
            want = _contract(r_q[a, b], u, v)
            gaps.append(abs(got - want) / (1.0 + abs(want)))
    return worst_of(gaps)


def sum_instance_residual(seed):
    """Relative gap between assembled and direct curvature of a seeded
    sum instance, both routes rows of one record
    (:func:`~hermitia.sequences.sum_curvature`), plus the instance's
    degeneracy kind."""
    b1, b2, z, kind = instances.sum_instance(seed)
    return sum_curvature(b1, b2, z).residual, kind


def identity_table_instance(seed):
    """The five derivative-identity residuals on one seeded instance."""
    seq, z = instances.sequence_instance(seed)
    return demailly_residuals(seq, z)


@_criterion(5, "sub and quotient curvature suite")
def sub_quotient_curvature_suite(report):
    """Second-form curvature corrections match intrinsic curvature.

    The tautological line pins the signs (-1 on the sub side, +1 on the
    quotient side at the center); 25 seeded sequence instances then
    compare the corrected ambient pairing against the curvature of the
    induced fields to a relative 1e-4.
    """
    taut = _tautological_line()
    z0 = np.zeros(1)
    r_sub = codazzi_sub(taut, z0, 0, 0, [1.0], [1.0])
    r_quot = codazzi_quot(taut, z0, 0, 0, [1.0], [1.0])
    report.add("line_sub_center", value=float(r_sub.real), residual=abs(r_sub + 1.0),
               tolerance=LINE_CURVATURE_TOL)
    report.add("line_quot_center", value=float(r_quot.real), residual=abs(r_quot - 1.0),
               tolerance=LINE_CURVATURE_TOL)
    worst = worst_of(codazzi_instance_residual(seed) for seed in range(25))
    report.add("suite_worst_relative", value=worst, residual=worst, tolerance=CODAZZI_SUITE_TOL)


@_criterion(6, "sum of forms suite")
def sum_of_forms_suite(report):
    """Assembled curvature of a sum of forms matches the direct route.

    25 seeded instances, cycling through both-definite, one-degenerate
    and both-degenerate summands, agree to a relative 1e-4.
    """
    resids, kinds = zip(*(sum_instance_residual(seed) for seed in range(25)))
    worst = worst_of(resids)
    report.add("suite_worst_relative", value=worst, residual=worst, tolerance=SUM_SUITE_TOL)
    report.add("summand_kinds", value=sorted(set(kinds)), passed=set(kinds) == {0, 1, 2})


@_criterion(7, "gauge independence")
def gauge_independence_suite(report):
    """Curvature of degenerate fields ignores kernel-valued connection gauge.

    20 seeded degenerate instances, each perturbed by a random smooth
    kernel-valued connection term, reproduce the curvature tensor to
    1e-6.
    """
    worst = worst_of(
        gauge_independence_residual(*instances.gauge_instance(seed), seed=seed)
        for seed in range(20)
    )
    report.add("worst_residual", value=worst, residual=worst, tolerance=GAUGE_TOL)


@_criterion(8, "derivative identity table")
def derivative_identity_table(report):
    """All five derivative identities of a metrized sequence hold.

    Each line of the table stays below 1e-5 across the seeded instance
    suite.
    """
    lines = {}
    for seed in range(25):
        for key, value in identity_table_instance(seed).items():
            lines.setdefault(key, []).append(value)
    for key, values in lines.items():
        worst = worst_of(values)
        report.add(key, value=worst, residual=worst, tolerance=IDENTITY_TOL)


@_criterion(9, "quotient limit decay")
def quotient_limit_decay(report):
    """The scaled quotient family converges at the advertised rate.

    Over seeded positive pairs, the error to the limit contracts by
    exp(-2) per lambda step of 2, within 20 percent, and the limit
    equals its projection formula to 1e-8.
    """
    rng = np.random.default_rng(8)
    grid = (2.0, 4.0, 6.0, 8.0)
    target = float(np.exp(-2.0))
    tested = 0
    ratio_devs, projections = [], []
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        b1, b2 = instances.balanced_limit_pair(rng, dim)
        q_values, q_inf, projection = limit_form(b1, b2, grid)
        projections.append(projection)
        errors = [np.linalg.norm(q.gram - q_inf.gram) for q in q_values]
        if worst_of(errors) < LIMIT_EXACT_CUT:
            continue  # the family is already exact; no rate to measure
        tested += 1
        ratio_devs.extend(abs(cur / prev / target - 1.0) for prev, cur in zip(errors, errors[1:]))
    report.add("instances_with_rate", value=tested, passed=tested >= 5)
    worst = worst_of(ratio_devs)
    report.add("worst_ratio_deviation", value=worst, residual=worst, tolerance=DECAY_RATIO_TOL)
    worst = worst_of(projections)
    report.add("worst_projection_residual", value=worst, residual=worst,
               tolerance=PROJECTION_FORMULA_TOL)


@_criterion(10, "fibration positivity", budget=120.0)
def fibration_positivity(report):
    """The threshold scan certifies positivity for both bundled families.

    For the product of round metrics and the twist-one family on the
    0.7 region, the scan must find a finite threshold, report positive
    refined minima at and above it, and return the same threshold when
    the sample count doubles, all inside two minutes.
    """
    candidates = (
        ("product", product_model(fubini_study_chart(1), fubini_study_chart(1), name="prod")),
        ("twist_one", hirzebruch_model(1)),
    )
    for label, model in candidates:
        scan = find_lambda0(model, sphere_samples=200, seed=0)
        report.add(label + "_lambda0", value=scan.lambda0, passed=scan.found)
        if not scan.found:
            continue
        lam0 = scan.lambda0

        minima, positive = [], True
        for lam in (lam0, lam0 + 1.0, lam0 + 3.0):
            one = find_lambda0(model, sphere_samples=200, lambda_schedule=(lam,), margin=0.0, seed=0)
            min_H = one.records[-1]["min_H"]
            minima.append(min_H)
            positive = positive and one.found and min_H is not None and min_H > 0.0
        report.add(label + "_min_H", value=minima, passed=positive)

        double = find_lambda0(model, sphere_samples=400, seed=0)
        report.add(label + "_lambda0_doubled", value=double.lambda0,
                   passed=double.found and double.lambda0 == lam0)


@_criterion(11, "form calculus properties", budget=5.0)
def form_calculus_properties(report):
    """The six basic laws of the degenerate-form calculus, 100 draws each.

    Adjoint defining identity, kernel-torsor structure of adjoints,
    double adjoint up to kernel, complement decomposition, lift
    independence of quotient forms, and kernel containment of the sum
    quotient; all inside five seconds.
    """
    # adjoint defining identity
    rng = np.random.default_rng(100)
    resids = []
    for _ in range(100):
        dv = int(rng.integers(1, 7))
        dw = int(rng.integers(1, 7))
        bV = instances.hermitian_form(rng, dv, rank=int(rng.integers(1, dv + 1)))
        bW = instances.hermitian_form(rng, dw, rank=int(rng.integers(1, dw + 1)))
        f = instances.adjointable_map(rng, bV, bW)
        fd = adjoint(f, bV, bW).matrix
        resid = np.max(np.abs(bV.gram @ fd - f.matrix.conj().T @ bW.gram))
        resids.append(resid / (1.0 + np.linalg.norm(f.matrix)))
    worst = worst_of(resids)
    report.add("adjoint_identity", value=worst, residual=worst, tolerance=ADJOINT_IDENTITY_TOL)

    # adjoints form a torsor under kernel-valued maps
    rng = np.random.default_rng(101)
    idents, leaks = [], []
    for _ in range(100):
        dv = int(rng.integers(2, 7))
        bV = instances.hermitian_form(rng, dv, rank=int(rng.integers(1, dv)))
        bW = instances.hermitian_form(rng, int(rng.integers(1, 5)))
        f = instances.adjointable_map(rng, bV, bW)
        fd = adjoint(f, bV, bW).matrix
        kv = kernel(bV).basis
        other = fd + kv @ _cnormal(rng, (kv.shape[1], bW.dim))
        idents.append(np.max(np.abs(bV.gram @ other - f.matrix.conj().T @ bW.gram)))
        diff = other - fd
        leaks.append(np.linalg.norm(diff - kv @ (kv.conj().T @ diff)))
    worst = worst_of(idents)
    report.add("torsor_identity", value=worst, residual=worst, tolerance=TORSOR_IDENTITY_TOL)
    worst = worst_of(leaks)
    report.add("torsor_kernel", value=worst, residual=worst, tolerance=TORSOR_KERNEL_TOL)

    # double adjoint returns f modulo Ker b_W
    rng = np.random.default_rng(102)
    resids, admits = [], True
    for _ in range(100):
        dv = int(rng.integers(1, 6))
        dw = int(rng.integers(1, 6))
        bV = instances.hermitian_form(rng, dv, rank=int(rng.integers(1, dv + 1)))
        bW = instances.hermitian_form(rng, dw, rank=int(rng.integers(1, dw + 1)))
        f = instances.adjointable_map(rng, bV, bW)
        fd = adjoint(f, bV, bW)
        admits = admits_adjoint(fd, bW, bV)
        if not admits:
            break
        fdd = adjoint(fd, bW, bV).matrix
        diff = fdd - f.matrix
        kw = kernel(bW).basis
        resid = np.linalg.norm(diff - kw @ (kw.conj().T @ diff))
        resids.append(resid / (1.0 + np.linalg.norm(f.matrix)))
    worst = worst_of(resids)
    report.add("double_adjoint", value=worst, residual=worst, tolerance=DOUBLE_ADJOINT_TOL)
    report.add("double_adjoint", value=worst, passed=admits)

    # S + S_perp is everything; S meet S_perp is S meet Ker b
    rng = np.random.default_rng(103)
    for checked in range(1, 101):
        dim = int(rng.integers(2, 7))
        b = instances.hermitian_form(rng, dim, rank=int(rng.integers(1, dim + 1)))
        d = int(rng.integers(1, dim + 1))
        s = Subspace(dim, _cnormal(rng, (dim, d)))
        perp = orthogonal_complement(s, b)
        sv = np.linalg.svd(np.hstack([s.basis, perp.basis]), compute_uv=False)
        dim_sum = rank_of(sv, SPAN_RANK_TOL)
        dim_int = s.dim + perp.dim - dim_sum
        kb = kernel(b).basis
        joint = np.hstack([s.basis, kb]) if kb.shape[1] else s.basis
        sv2 = np.linalg.svd(joint, compute_uv=False)
        dim_int_kernel = s.dim + kb.shape[1] - rank_of(sv2, SPAN_RANK_TOL)
        intact = dim_sum == dim and dim_int == dim_int_kernel
        if not intact:
            break
    report.add("decomposition_checked", value=checked, passed=intact)

    # quotient forms do not see the choice of lift
    rng = np.random.default_rng(104)
    resids = []
    for _ in range(100):
        dw = int(rng.integers(1, 4))
        dv = dw + int(rng.integers(0, 3))
        qmat = _cnormal(rng, (dw, dv))
        h = instances.hermitian_form(rng, dw).gram
        bV = HermitianForm(qmat.conj().T @ h @ qmat)
        got = quotient_form(LinearMap(qmat), bV).gram
        resids.append(np.linalg.norm(got - h) / (1.0 + np.linalg.norm(h)))
    worst = worst_of(resids)
    report.add("quotient_lift", value=worst, residual=worst, tolerance=QUOTIENT_LIFT_TOL)

    # the sum quotient is psd and kills both summand kernels
    rng = np.random.default_rng(105)
    leaks, psd = [], True
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        b1 = instances.psd_form(rng, dim, rank=int(rng.integers(1, dim + 1)))
        b2 = instances.psd_form(rng, dim)
        q = sum_quotient_form(b1, b2)
        psd = q.is_positive_semidefinite()
        if not psd:
            break
        for b in (b1, b2):
            kb = kernel(b).basis
            if kb.shape[1]:
                leaks.append(np.linalg.norm(q.gram @ kb))
    worst = worst_of(leaks)
    report.add("kernel_containment", value=worst, residual=worst, tolerance=KERNEL_CONTAINMENT_TOL)
    report.add("kernel_containment", value=worst, passed=psd)


CRITERIA = (
    round_metric_calibration,
    grassmannian_curvature_window,
    einstein_constants,
    two_chart_constructions_agree,
    sub_quotient_curvature_suite,
    sum_of_forms_suite,
    gauge_independence_suite,
    derivative_identity_table,
    quotient_limit_decay,
    fibration_positivity,
    form_calculus_properties,
)


def run_all(numbers=None):
    """Run the numbered criteria (all by default) and return their results."""
    wanted = None if numbers is None else {int(n) for n in numbers}
    results = []
    for index, criterion in enumerate(CRITERIA, start=1):
        if wanted is not None and index not in wanted:
            continue
        results.append(criterion())
    return results
