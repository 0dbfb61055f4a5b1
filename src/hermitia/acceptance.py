"""Bundled acceptance checks.

Each criterion exercises one advertised guarantee of the package end to
end, at a fixed tolerance and, where one is stated, a wall-clock
budget.  A criterion never raises for a measured miss; it returns a
CriterionResult whose ``failures`` list says exactly which clause broke,
so the CLI can render a table and the test suite can assert on it.

All randomness is seeded inside the criterion bodies, so two runs on the
same machine produce identical numbers.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import instances
from .charts import curvature_tensor, gauge_independence_residual, hsc, sample_box
from .fields import constant_field, sum_field
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
    projection_limit_gram,
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
from .report import _plain
from .sequences import (
    ExactSeqChart,
    _contract,
    codazzi_quot,
    codazzi_sub,
    demailly_residuals,
    sum_curvature,
)


# The gates of the criteria, each a bound on the quantity named (relative
# where the criterion's docstring says so): a criterion fails when its
# quantity is above the gate.  LIMIT_EXACT_CUT and SPAN_RANK_TOL are cuts
# that decide what is measured, not gates.
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


def _sci(tol):
    """A gate as the failure messages print it: 1e-5, not 1e-05."""
    return ("%.0e" % tol).replace("e-0", "e-")

@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    budget: float  # or None when no runtime clause applies
    details: dict
    failures: list

    @property
    def status(self):
        return "pass" if self.passed else "FAIL"

    def as_dict(self):
        return {
            "number": self.number,
            "name": self.name,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed, 3),
            "budget_s": self.budget,
            "failures": list(self.failures),
            "details": {key: _plain(value) for key, value in self.details.items()},
        }


def _finish(number, name, t0, budget, details, failures):
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed > budget:
        failures.append("runtime %.2fs is over the %.0fs budget" % (elapsed, budget))
    return CriterionResult(number, name, not failures, elapsed, budget, details, failures)


def round_metric_calibration():
    """H is identically 2 for the round metric on the line chart.

    Checked on a 5x5 grid inside |z| <= 0.9, in the analytic mode to
    1e-5 and through the finite-difference copy of the same field to
    1e-3, all inside one second.
    """
    t0 = time.perf_counter()
    details, failures = {}, []
    field = fubini_study_chart(1)
    side = np.linspace(-0.9 / np.sqrt(2.0), 0.9 / np.sqrt(2.0), 5)
    points = [np.array([x + 1j * y]) for x in side for y in side]
    v = np.ones(1, dtype=complex)

    worst = max(abs(hsc(field, z, v) - 2.0) for z in points)
    details["analytic_worst"] = worst
    if worst > CALIBRATION_TOL:
        failures.append("analytic deviation %.2e from 2 exceeds %s" % (worst, _sci(CALIBRATION_TOL)))

    fd = field.finite_difference_copy()
    worst_fd = max(abs(hsc(fd, z, v) - 2.0) for z in points)
    details["finite_difference_worst"] = worst_fd
    if worst_fd > CALIBRATION_FD_TOL:
        failures.append(
            "finite-difference deviation %.2e from 2 exceeds %s" % (worst_fd, _sci(CALIBRATION_FD_TOL))
        )

    return _finish(1, "round metric calibration", t0, 1.0, details, failures)


def grassmannian_curvature_window():
    """Sampled curvature extremes on the (2, 4) chart match its declared bounds.

    A 2000-sample scan with refinement must land within 0.025 of the
    declared lower bound and 0.02 of the declared upper bound, with no
    value escaping the declared window by more than 1e-3, in under 30 s.
    """
    t0 = time.perf_counter()
    details, failures = {}, []
    model = grassmannian_chart(2, 4)
    scan = hsc_extremes(model.field, region=0.7, samples=2000, optimizer_steps=200, seed=0)
    details["min_H"] = scan.min_H
    details["max_H"] = scan.max_H
    details["declared_lower"] = model.hsc_lower
    details["declared_upper"] = model.hsc_upper

    if abs(scan.min_H - model.hsc_lower) > WINDOW_LOWER_TOL:
        failures.append(
            "refined minimum %.4f is not within %g of the declared lower bound %.4f"
            % (scan.min_H, WINDOW_LOWER_TOL, model.hsc_lower)
        )
    if abs(scan.max_H - model.hsc_upper) > WINDOW_UPPER_TOL:
        failures.append(
            "refined maximum %.4f is not within %g of the declared upper bound %.4f"
            % (scan.max_H, WINDOW_UPPER_TOL, model.hsc_upper)
        )
    if scan.min_H < model.hsc_lower - WINDOW_ESCAPE_TOL or scan.max_H > model.hsc_upper + WINDOW_ESCAPE_TOL:
        failures.append("scan escapes the declared window by more than %s" % _sci(WINDOW_ESCAPE_TOL))

    return _finish(2, "grassmannian curvature window", t0, 30.0, details, failures)


def einstein_constants():
    """The three bundled homogeneous models satisfy their Einstein equations.

    Ricci minus the stated constant times the metric stays below 1e-6
    at ten seeded points for each model.
    """
    t0 = time.perf_counter()
    details, failures = {}, []
    cases = (
        ("fs:1", fubini_study_chart(1), 2.0),
        ("fs:2", fubini_study_chart(2), 3.0),
        ("gr:2:4", grassmannian_chart(2, 4).field, 4.0),
    )
    for label, field, constant in cases:
        resid = einstein_residual(field, constant)
        details[label] = resid
        if resid > EINSTEIN_TOL:
            failures.append("%s residual %.2e exceeds %s" % (label, resid, _sci(EINSTEIN_TOL)))
    return _finish(3, "einstein constants", t0, None, details, failures)


def two_chart_constructions_agree():
    """The closed-form (2, 4) chart metric equals the minor-embedding route.

    Both Grams agree to a relative 1e-8 at twenty seeded points in the
    chart.
    """
    t0 = time.perf_counter()
    details, failures = {}, []
    model = grassmannian_chart(2, 4)
    rng = np.random.default_rng(23)
    worst = pluecker_gap(model.field, 2, 4, [sample_box(rng, 4, 0.7) for _ in range(20)])
    details["worst_relative"] = worst
    if worst > CHART_ROUTES_TOL:
        failures.append("routes disagree by %.2e relative, above %s" % (worst, _sci(CHART_ROUTES_TOL)))
    return _finish(4, "two chart constructions agree", t0, None, details, failures)


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
    worst = 0.0
    for a in range(seq.m):
        for b in range(seq.m):
            s, t = _cnormal(rng, seq.k), _cnormal(rng, seq.k)
            got = codazzi_sub(seq, z, a, b, s, t)
            want = _contract(r_s[a, b], s, t)
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
            u, v = _cnormal(rng, seq.r - seq.k), _cnormal(rng, seq.r - seq.k)
            got = codazzi_quot(seq, z, a, b, u, v)
            want = _contract(r_q[a, b], u, v)
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    return worst


def sum_instance_residual(seed):
    """Relative gap between assembled and direct curvature of a seeded
    sum instance, plus the instance's degeneracy kind."""
    b1, b2, z, kind = instances.sum_instance(seed)
    assembled = sum_curvature(b1, b2, z)
    direct = curvature_tensor(sum_field(b1, b2), z)
    err = np.linalg.norm(assembled.tensor - direct.tensor)
    return err / (1.0 + np.linalg.norm(direct.tensor)), kind


def identity_table_instance(seed):
    """The five derivative-identity residuals on one seeded instance."""
    seq, z = instances.sequence_instance(seed)
    return demailly_residuals(seq, z)


def sub_quotient_curvature_suite():
    """Second-form curvature corrections match intrinsic curvature.

    The tautological line pins the signs (-1 on the sub side, +1 on the
    quotient side at the center); 25 seeded sequence instances then
    compare the corrected ambient pairing against the curvature of the
    induced fields to a relative 1e-4.
    """
    t0 = time.perf_counter()
    details, failures = {}, []

    taut = _tautological_line()
    z0 = np.zeros(1)
    r_sub = codazzi_sub(taut, z0, 0, 0, [1.0], [1.0])
    r_quot = codazzi_quot(taut, z0, 0, 0, [1.0], [1.0])
    details["line_sub_center"] = float(r_sub.real)
    details["line_quot_center"] = float(r_quot.real)
    if abs(r_sub + 1.0) > LINE_CURVATURE_TOL:
        failures.append("sub curvature at the center is %.6f, want -1" % r_sub.real)
    if abs(r_quot - 1.0) > LINE_CURVATURE_TOL:
        failures.append("quotient curvature at the center is %.6f, want +1" % r_quot.real)

    worst = 0.0
    for seed in range(25):
        worst = max(worst, codazzi_instance_residual(seed))
    details["suite_worst_relative"] = worst
    if worst > CODAZZI_SUITE_TOL:
        failures.append("suite residual %.2e exceeds %s" % (worst, _sci(CODAZZI_SUITE_TOL)))

    return _finish(5, "sub and quotient curvature suite", t0, None, details, failures)


def sum_of_forms_suite():
    """Assembled curvature of a sum of forms matches the direct route.

    25 seeded instances, cycling through both-definite, one-degenerate
    and both-degenerate summands, agree to a relative 1e-4.
    """
    t0 = time.perf_counter()
    details, failures = {}, []
    worst = 0.0
    kinds = set()
    for seed in range(25):
        resid, kind = sum_instance_residual(seed)
        kinds.add(kind)
        worst = max(worst, resid)
    details["suite_worst_relative"] = worst
    details["summand_kinds"] = sorted(kinds)
    if worst > SUM_SUITE_TOL:
        failures.append("suite residual %.2e exceeds %s" % (worst, _sci(SUM_SUITE_TOL)))
    if kinds != {0, 1, 2}:
        failures.append("instance suite does not cover all degeneracy kinds")
    return _finish(6, "sum of forms suite", t0, None, details, failures)


def gauge_independence_suite():
    """Curvature of degenerate fields ignores kernel-valued connection gauge.

    20 seeded degenerate instances, each perturbed by a random smooth
    kernel-valued connection term, reproduce the curvature tensor to
    1e-6.
    """
    t0 = time.perf_counter()
    details, failures = {}, []
    worst = 0.0
    for seed in range(20):
        field, z = instances.gauge_instance(seed)
        resid = gauge_independence_residual(field, z, seed=seed)
        worst = max(worst, resid)
    details["worst_residual"] = worst
    if worst > GAUGE_TOL:
        failures.append("gauge residual %.2e exceeds %s" % (worst, _sci(GAUGE_TOL)))
    return _finish(7, "gauge independence", t0, None, details, failures)


def derivative_identity_table():
    """All five derivative identities of a metrized sequence hold.

    Each line of the table stays below 1e-5 across the seeded instance
    suite.
    """
    t0 = time.perf_counter()
    details, failures = {}, []
    worst = {}
    for seed in range(25):
        for key, value in identity_table_instance(seed).items():
            worst[key] = max(worst.get(key, 0.0), value)
    details.update(worst)
    for key, value in sorted(worst.items()):
        if value > IDENTITY_TOL:
            failures.append(
                "identity line '%s' residual %.2e exceeds %s" % (key, value, _sci(IDENTITY_TOL))
            )
    return _finish(8, "derivative identity table", t0, None, details, failures)


def quotient_limit_decay():
    """The scaled quotient family converges at the advertised rate.

    Over seeded positive pairs, the error to the limit contracts by
    exp(-2) per lambda step of 2, within 20 percent, and the limit
    equals its projection formula to 1e-8.
    """
    t0 = time.perf_counter()
    details, failures = {}, []
    rng = np.random.default_rng(8)
    grid = (2.0, 4.0, 6.0, 8.0)
    target = float(np.exp(-2.0))
    tested = 0
    worst_ratio_dev = 0.0
    worst_projection = 0.0
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        b1, b2 = instances.balanced_limit_pair(rng, dim)
        q_values, q_inf = limit_form(b1, b2, grid)
        check = projection_limit_gram(b1, b2)
        worst_projection = max(
            worst_projection,
            np.linalg.norm(check - q_inf.gram) / (1.0 + np.linalg.norm(q_inf.gram)),
        )
        errors = [np.linalg.norm(q.gram - q_inf.gram) for q in q_values]
        if max(errors) < LIMIT_EXACT_CUT:
            continue  # the family is already exact; no rate to measure
        tested += 1
        for prev, cur in zip(errors, errors[1:]):
            worst_ratio_dev = max(worst_ratio_dev, abs(cur / prev / target - 1.0))
    details["instances_with_rate"] = tested
    details["worst_ratio_deviation"] = worst_ratio_dev
    details["worst_projection_residual"] = worst_projection
    if tested < 5:
        failures.append("only %d instances had a measurable rate, want >= 5" % tested)
    if worst_ratio_dev > DECAY_RATIO_TOL:
        failures.append(
            "decay ratio drifts %.0f%% from exp(-2), above %.0f%%"
            % (100 * worst_ratio_dev, 100 * DECAY_RATIO_TOL)
        )
    if worst_projection > PROJECTION_FORMULA_TOL:
        failures.append(
            "projection-formula residual %.2e exceeds %s" % (worst_projection, _sci(PROJECTION_FORMULA_TOL))
        )
    return _finish(9, "quotient limit decay", t0, None, details, failures)


def fibration_positivity():
    """The threshold scan certifies positivity for both bundled families.

    For the product of round metrics and the twist-one family on the
    0.7 region, the scan must find a finite threshold, report positive
    refined minima at and above it, and return the same threshold when
    the sample count doubles, all inside two minutes.
    """
    t0 = time.perf_counter()
    details, failures = {}, []
    candidates = (
        ("product", product_model(fubini_study_chart(1), fubini_study_chart(1), name="prod")),
        ("twist_one", hirzebruch_model(1)),
    )
    for label, model in candidates:
        scan = find_lambda0(model, sphere_samples=200, seed=0)
        if not scan.found:
            failures.append("%s: schedule exhausted without a threshold" % label)
            continue
        lam0 = scan.lambda0
        details[label + "_lambda0"] = lam0

        minima = []
        for lam in (lam0, lam0 + 1.0, lam0 + 3.0):
            one = find_lambda0(model, sphere_samples=200, lambda_schedule=(lam,), margin=0.0, seed=0)
            record = one.records[-1]
            minima.append(record["min_H"])
            if not (one.found and record["min_H"] is not None and record["min_H"] > 0.0):
                failures.append("%s: refined minimum not positive at lambda=%.2f" % (label, lam))
        details[label + "_min_H"] = minima

        double = find_lambda0(model, sphere_samples=400, seed=0)
        details[label + "_lambda0_doubled"] = double.lambda0
        if (not double.found) or double.lambda0 != lam0:
            failures.append("%s: threshold moved when the sample count doubled" % label)

    return _finish(10, "fibration positivity", t0, 120.0, details, failures)


def form_calculus_properties():
    """The six basic laws of the degenerate-form calculus, 100 draws each.

    Adjoint defining identity, kernel-torsor structure of adjoints,
    double adjoint up to kernel, complement decomposition, lift
    independence of quotient forms, and kernel containment of the sum
    quotient; all inside five seconds.
    """
    t0 = time.perf_counter()
    details, failures = {}, []

    # adjoint defining identity
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        dv = int(rng.integers(1, 7))
        dw = int(rng.integers(1, 7))
        bV = instances.hermitian_form(rng, dv, rank=int(rng.integers(1, dv + 1)))
        bW = instances.hermitian_form(rng, dw, rank=int(rng.integers(1, dw + 1)))
        f = instances.adjointable_map(rng, bV, bW)
        fd = adjoint(f, bV, bW).matrix
        resid = np.max(np.abs(bV.gram @ fd - f.matrix.conj().T @ bW.gram))
        worst = max(worst, resid / (1.0 + np.linalg.norm(f.matrix)))
    details["adjoint_identity"] = worst
    if worst > ADJOINT_IDENTITY_TOL:
        failures.append("adjoint identity residual %.2e exceeds %s" % (worst, _sci(ADJOINT_IDENTITY_TOL)))

    # adjoints form a torsor under kernel-valued maps
    rng = np.random.default_rng(101)
    worst_ident, worst_kernel = 0.0, 0.0
    for _ in range(100):
        dv = int(rng.integers(2, 7))
        bV = instances.hermitian_form(rng, dv, rank=int(rng.integers(1, dv)))
        bW = instances.hermitian_form(rng, int(rng.integers(1, 5)))
        f = instances.adjointable_map(rng, bV, bW)
        fd = adjoint(f, bV, bW).matrix
        kv = kernel(bV).basis
        other = fd + kv @ _cnormal(rng, (kv.shape[1], bW.dim))
        worst_ident = max(
            worst_ident, np.max(np.abs(bV.gram @ other - f.matrix.conj().T @ bW.gram))
        )
        diff = other - fd
        worst_kernel = max(worst_kernel, np.linalg.norm(diff - kv @ (kv.conj().T @ diff)))
    details["torsor_identity"] = worst_ident
    details["torsor_kernel"] = worst_kernel
    if worst_ident > TORSOR_IDENTITY_TOL:
        failures.append("perturbed adjoint breaks the identity at %.2e" % worst_ident)
    if worst_kernel > TORSOR_KERNEL_TOL:
        failures.append("adjoint difference leaves the kernel by %.2e" % worst_kernel)

    # double adjoint returns f modulo Ker b_W
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        dv = int(rng.integers(1, 6))
        dw = int(rng.integers(1, 6))
        bV = instances.hermitian_form(rng, dv, rank=int(rng.integers(1, dv + 1)))
        bW = instances.hermitian_form(rng, dw, rank=int(rng.integers(1, dw + 1)))
        f = instances.adjointable_map(rng, bV, bW)
        fd = adjoint(f, bV, bW)
        if not admits_adjoint(fd, bW, bV):
            failures.append("an adjoint failed to admit its own adjoint")
            break
        fdd = adjoint(fd, bW, bV).matrix
        diff = fdd - f.matrix
        kw = kernel(bW).basis
        resid = np.linalg.norm(diff - kw @ (kw.conj().T @ diff))
        worst = max(worst, resid / (1.0 + np.linalg.norm(f.matrix)))
    details["double_adjoint"] = worst
    if worst > DOUBLE_ADJOINT_TOL:
        failures.append("double adjoint drifts from f by %.2e mod kernel" % worst)

    # S + S_perp is everything; S meet S_perp is S meet Ker b
    rng = np.random.default_rng(103)
    for _ in range(100):
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
        if dim_sum != dim or dim_int != dim_int_kernel:
            failures.append("complement decomposition broke at dim %d" % dim)
            break
    details["decomposition_checked"] = 100

    # quotient forms do not see the choice of lift
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        dw = int(rng.integers(1, 4))
        dv = dw + int(rng.integers(0, 3))
        qmat = _cnormal(rng, (dw, dv))
        h = instances.hermitian_form(rng, dw).gram
        bV = HermitianForm(qmat.conj().T @ h @ qmat)
        got = quotient_form(LinearMap(qmat), bV).gram
        worst = max(worst, np.linalg.norm(got - h) / (1.0 + np.linalg.norm(h)))
    details["quotient_lift"] = worst
    if worst > QUOTIENT_LIFT_TOL:
        failures.append("descended form depends on the lift by %.2e" % worst)

    # the sum quotient is psd and kills both summand kernels
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        b1 = instances.psd_form(rng, dim, rank=int(rng.integers(1, dim + 1)))
        b2 = instances.psd_form(rng, dim)
        q = sum_quotient_form(b1, b2)
        if not q.is_positive_semidefinite():
            failures.append("a sum quotient came out indefinite")
            break
        for b in (b1, b2):
            kb = kernel(b).basis
            if kb.shape[1]:
                worst = max(worst, np.linalg.norm(q.gram @ kb))
    details["kernel_containment"] = worst
    if worst > KERNEL_CONTAINMENT_TOL:
        failures.append("sum quotient leaks onto a summand kernel by %.2e" % worst)

    return _finish(11, "form calculus properties", t0, 5.0, details, failures)


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
