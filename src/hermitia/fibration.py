"""Metric families h_lambda = b1 + e^lambda b2 over a product chart.

A :class:`FibrationModel` holds two Gram fields on a base x fiber chart
(base coordinates first): b1 is positive on the fiber directions and b2
is pulled back from the base, so it annihilates them.  The operations
here follow the family as lambda grows: the curvature decomposition into
summand curvatures minus a quotient-form square, the quotient family
q_lambda and its limit, the behavior of vertical sectional curvature,
and the search for a lambda at which the whole family becomes positively
curved on the scan region.
"""

from dataclasses import dataclass

import numpy as np

from .charts import ChartField, curvature_tensor, hsc_of_tensor, metric_curvature
from .errors import ConfigError, HermitiaError, NotPositive, RankJump
from .fields import (
    embedded_factor_field,
    from_potential_map,
    scaled_field,
    sum_field,
    twisted_fiber_monomials,
)
from .forms import HermitianForm, limit_form, require_finite
from .models import (
    DEFAULT_FIBRATION_REGION,
    _sample_polydisc,
    _scan,
    _unit_directions,
    fubini_study_chart,
    single_threaded,
)
from .report import encode_complex
from .sequences import ExactSeqChart, SumAt

VERTICAL_LEAK_TOL = 1e-12
# The largest lambda of the family: e^lambda overflows above ln(max float).
LAMBDA_MAX = float(np.log(np.finfo(float).max))
# Relative floors of the positive-definiteness test _pd_rows: the lowest
# eigenvalue must exceed the floor times max(|largest eigenvalue|, 1).
# PD_FLOOR gates h_lambda before a curvature read; VERTICAL_PD_FLOOR gates
# the vertical block of the fiberwise form and of the limit form.
PD_FLOOR = 1e-12
VERTICAL_PD_FLOOR = 1e-10
# Seeded sample points at which FibrationModel checks its two invariants.
VALIDATION_POINTS = 5
DEFAULT_LAMBDA_SCHEDULE = tuple(range(13))
# The lambda grid along which q_lambda_limit follows the quotient family.
Q_LAMBDA_GRID = (2.0, 4.0, 6.0, 8.0)
# vertical_hsc_check: the lambdas of h_lambda and the number of seeded
# vertical directions scored at every grid point.
VERTICAL_LAMBDAS = (3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
VERTICAL_DIRECTIONS = 4
# find_lambda0: directions per sampled point, and the most refinement
# steps at the minimizing direction of each scanned lambda.
LAMBDA_SCAN_DIRECTIONS = 20
LAMBDA_SCAN_STEPS = 40
# q_lambda_limit: a convergence error at or below UNDERFLOW_FLOOR (times
# 1 + |q_inf| for the ratios) is rounding, not a rate, and a family whose
# errors and limit all lie below it is trivial.
UNDERFLOW_FLOOR = 1e-13
# vertical_hsc_check: a fiber whose sampled H stay below this is flat.
FLAT_FIBER_TOL = 1e-8


class FibrationModel:
    """Two-form family data on a product chart, base coordinates first.

    b1_field is the fiberwise form (positive-definite on the vertical
    block at sampled points); b2_field is the base pullback (vanishing
    against every vertical direction).  Both invariants are checked at
    seeded sample points on construction.  The two fields are the whole
    description: the fiber metric is b1 restricted to the vertical
    sub-bundle (see :func:`vertical_field`).
    """

    def __init__(
        self,
        base_dim,
        fiber_dim,
        b1_field: ChartField,
        b2_field: ChartField,
        name="",
    ):
        if base_dim < 1 or fiber_dim < 1:
            raise ConfigError("base and fiber dimensions must be positive")
        self.base_dim = int(base_dim)
        self.fiber_dim = int(fiber_dim)
        self.total_m = self.base_dim + self.fiber_dim
        if b1_field.m != self.total_m or b2_field.m != self.total_m:
            raise HermitiaError("summand fields do not live on the product chart")
        if b1_field.shape != self.total_m or b2_field.shape != self.total_m:
            raise HermitiaError("summand fields are not tangent-bundle sized")
        self.b1_field = b1_field
        self.b2_field = b2_field
        self.name = name
        self._validate()

    @property
    def vertical(self):
        return slice(self.base_dim, self.total_m)

    def _validate(self):
        rng = np.random.default_rng(
            np.random.SeedSequence([37, self.base_dim, self.fiber_dim])
        )
        v = self.vertical
        for _ in range(VALIDATION_POINTS):
            z = _sample_polydisc(rng, self.total_m, DEFAULT_FIBRATION_REGION)
            g1 = self.b1_field.gram(z)
            require_finite(g1, "fiberwise Gram matrix", z)
            if not _pd_rows(g1[None, v, v], VERTICAL_PD_FLOOR)[0]:
                raise NotPositive(
                    "fiberwise form is not positive-definite on the vertical "
                    "block (min eigenvalue %.2e)" % np.linalg.eigvalsh(g1[v, v])[0]
                )
            g2 = self.b2_field.gram(z)
            leak = np.linalg.norm(g2[:, v])
            if leak > VERTICAL_LEAK_TOL * (1.0 + np.linalg.norm(g2)):
                raise HermitiaError(
                    "base form pairs with vertical directions (%.2e)" % leak
                )


def product_model(base_field: ChartField, fiber_field: ChartField, name=""):
    """Product metric data: fiber form and base form, each zero-padded."""
    mb, mf = base_field.m, fiber_field.m
    total = mb + mf
    radius = np.concatenate(
        [np.broadcast_to(base_field.radius, (mb,)), np.broadcast_to(fiber_field.radius, (mf,))]
    )
    b2 = embedded_factor_field(base_field, total, 0, radius=radius, name=name + ".base")
    b1 = embedded_factor_field(fiber_field, total, mb, radius=radius, name=name + ".fiber")
    return FibrationModel(mb, mf, b1, b2, name=name or "prod")


def hirzebruch_model(k):
    """Twisted line family over the projective line, chart (z, w).

    b1 is the Gram field of log(1 + (1 + |z|^2)^k |w|^2): fiberwise the
    rescaled round metric, but degenerate in the base direction exactly
    on the zero section w = 0 (the rank jump the decomposition
    preconditions are about).  b2 is the base round metric pulled back.
    """
    if k < 0:
        raise ConfigError("twist degree must be nonnegative")
    b1 = from_potential_map(
        twisted_fiber_monomials(k), radius=2.0, name="hirz%d.rel" % k
    )
    b2 = embedded_factor_field(
        fubini_study_chart(1), 2, 0, radius=np.array([2.0, 2.0]), name="hirz%d.base" % k
    )
    return FibrationModel(1, 1, b1, b2, name="hirz:%d" % k)


# ---------------------------------------------------------------------------
# the lambda family


def lambda_checked(lam):
    """``lam`` as a float, or ConfigError naming it when e^lam is not a
    finite float: lam must be a number at most LAMBDA_MAX.  Every lambda
    of the family passes here before any read."""
    lam = float(lam)
    if not -np.inf < lam <= LAMBDA_MAX:
        raise ConfigError(
            "lambda = %r has no finite e^lambda: it must be a number at most %.2f" % (lam, LAMBDA_MAX)
        )
    return lam


def h_lambda(model: FibrationModel, lam) -> ChartField:
    """Gram field of b1 + e^lambda b2."""
    lam = lambda_checked(lam)
    return sum_field(
        model.b1_field,
        model.b2_field,
        c2=float(np.exp(lam)),
        name="%s.h(%g)" % (model.name, lam),
    )


def _pd_rows(grams, floor):
    """Whether each matrix of a (B, n, n) stack of finite Hermitian
    matrices is positive-definite, from one batched ``eigvalsh``: its
    lowest eigenvalue exceeds ``floor`` times max(|largest eigenvalue|,
    1)."""
    w = np.linalg.eigvalsh(grams)
    return w[:, 0] > floor * np.maximum(np.abs(w[:, -1]), 1.0)


@dataclass
class DecomposedCurvature:
    point: np.ndarray
    lam: float
    direct: np.ndarray  # curvature tensor of h_lambda at the point
    formula: object  # the tensor assembled from the summands, or None
    residual: float  # relative gap between the two routes, or None
    applicable: bool  # False when a rank jump blocks the formula route


def r_lambda_decomposed(model: FibrationModel, lam, z) -> DecomposedCurvature:
    """Curvature of h_lambda, by the direct route and by summand assembly:
    the rows of one :class:`~hermitia.sequences.SumAt` of b1 and e^lambda
    b2, whose sum row is h_lambda's bit for bit.

    The checks come in the order: lambda (:func:`lambda_checked`), the
    sum's form at z (NonFinite, then the positive-definite floor), the sum
    row's error, then the summand rows'.  The assembled route needs
    constant-rank summands near the point; at a rank jump it is marked
    not applicable and only the direct curvature is reported.
    """
    lam = lambda_checked(lam)
    rec = SumAt(model.b1_field, scaled_field(model.b2_field, np.exp(lam)), z)
    if not _pd_rows(rec.form.gram[None], PD_FLOOR)[0]:
        raise NotPositive("h_lambda is not positive-definite at the point")
    direct = rec.direct
    try:
        formula = rec.tensor
    except RankJump:
        return DecomposedCurvature(
            point=rec.point, lam=lam, direct=direct, formula=None,
            residual=None, applicable=False,
        )
    return DecomposedCurvature(
        point=rec.point, lam=lam, direct=direct, formula=formula,
        residual=float(rec.residual), applicable=True,
    )


# ---------------------------------------------------------------------------
# the quotient family and its limit


@dataclass
class QuotientLimitRecord:
    point: np.ndarray
    lambda_grid: tuple
    errors: list  # ||q_lambda - q_inf|| per grid entry
    ratios: list  # consecutive error ratios (None where the error underflows)
    q_inf: HermitianForm
    semipositive: bool
    positive_on_vertical: bool
    projection_residual: float
    trivial: bool  # the whole family is zero


def q_lambda_limit(model: FibrationModel, z) -> QuotientLimitRecord:
    """Pointwise quotient family of (b1, e^lambda b2) along Q_LAMBDA_GRID
    and its limit.

    Delegates to the form-level limit machinery and reports convergence
    errors, the limit's positivity properties, and the residual of the
    projection formula (j j_dag)^* b1 over a complement of Ker b2.  For a
    base pullback b2 the limit vanishes on the vertical subspace, so
    ``positive_on_vertical`` is an honest finding, not a requirement.
    """
    z = np.asarray(z, dtype=complex)
    b1 = model.b1_field.form_at(z)
    b2 = model.b2_field.form_at(z)
    q_values, q_inf, projection_residual = limit_form(b1, b2, Q_LAMBDA_GRID)

    errors = [float(np.linalg.norm(q.gram - q_inf.gram)) for q in q_values]
    scale = 1.0 + float(np.linalg.norm(q_inf.gram))
    ratios = [
        cur / prev if prev > UNDERFLOW_FLOOR * scale and cur > UNDERFLOW_FLOOR * scale else None
        for prev, cur in zip(errors, errors[1:])
    ]

    v = model.vertical
    positive_on_vertical = bool(_pd_rows(q_inf.gram[None, v, v], VERTICAL_PD_FLOOR)[0])

    return QuotientLimitRecord(
        point=z,
        lambda_grid=Q_LAMBDA_GRID,
        errors=errors,
        ratios=ratios,
        q_inf=q_inf,
        semipositive=q_inf.is_positive_semidefinite(),
        positive_on_vertical=positive_on_vertical,
        projection_residual=projection_residual,
        trivial=bool(max(errors + [np.linalg.norm(q_inf.gram)]) < UNDERFLOW_FLOOR),
    )


# ---------------------------------------------------------------------------
# vertical sectional curvature along the family


@dataclass
class VerticalHscReport:
    points: int
    lambdas: tuple
    min_vertical_h: float
    gap_by_lambda: dict  # lambda -> max |H_{h_lambda}(v) - H_fiber(v)|
    fiber_flat: bool
    positive: bool


def vertical_field(model: FibrationModel) -> ChartField:
    """The Gram field of b1 on the vertical sub-bundle V, the sub field
    of :class:`~hermitia.sequences.ExactSeqChart` for the constant
    inclusion j = [0; I] of the fiber directions.  At (z_B, w) its
    curvature on vertical index pairs is that of the fiber over z_B."""
    j = np.eye(model.total_m, model.fiber_dim, -model.base_dim)
    return ExactSeqChart(model.b1_field, j, name=model.name + ".vertical").sub_field


def vertical_hsc_check(model: FibrationModel, z_grid) -> VerticalHscReport:
    """Sectional curvature of h_lambda along vertical directions.

    At every grid point, VERTICAL_DIRECTIONS seeded vertical directions
    are scored in one stacked contraction per curvature tensor: H must
    stay positive for every lambda in VERTICAL_LAMBDAS, and the gap to the
    intrinsic fiber curvature must shrink as lambda grows.  The fiber
    curvature is read once per point, as the vertical index pairs of the
    curvature of :func:`vertical_field`.  A flat fiber metric is reported
    via ``fiber_flat`` instead of failing.  An empty grid scores no point,
    so it is a ConfigError.
    """
    z_grid = [np.asarray(z, dtype=complex) for z in z_grid]
    if not z_grid:
        raise ConfigError("vertical_hsc_check got an empty grid: no point to score")
    v = model.vertical
    rng = np.random.default_rng(np.random.SeedSequence([0, 53]))
    dirs = _unit_directions(rng, model.fiber_dim, VERTICAL_DIRECTIONS)
    vfull = np.zeros((VERTICAL_DIRECTIONS, model.total_m), dtype=complex)
    vfull[:, v] = dirs

    fiber = vertical_field(model)
    fiber_h = []
    for z in z_grid:
        curv = metric_curvature(fiber, z, "fiber metric")
        fiber_h.append(hsc_of_tensor(curv.tensor[v, v], curv.form.gram, dirs))

    min_h = np.inf
    gap_by_lambda = {}
    for lam in VERTICAL_LAMBDAS:
        field = h_lambda(model, lam)
        worst_gap = 0.0
        for z, h_fiber in zip(z_grid, fiber_h):
            curv = curvature_tensor(field, z)
            h = hsc_of_tensor(curv.tensor, curv.form.gram, vfull)
            min_h = min(min_h, float(np.min(h)))
            worst_gap = max(worst_gap, float(np.max(np.abs(h - h_fiber))))
        gap_by_lambda[lam] = worst_gap

    flat = bool(np.max(np.abs(fiber_h)) < FLAT_FIBER_TOL)
    return VerticalHscReport(
        points=len(z_grid),
        lambdas=VERTICAL_LAMBDAS,
        min_vertical_h=float(min_h),
        gap_by_lambda=gap_by_lambda,
        fiber_flat=flat,
        positive=bool(min_h > 0.0),
    )


# ---------------------------------------------------------------------------
# threshold search


@dataclass
class LambdaScanResult:
    lambda0: float  # or None when the schedule is exhausted
    records: list  # one dict per scanned lambda, in scan order
    seed: int
    sphere_samples: int
    region: float

    @property
    def found(self):
        return self.lambda0 is not None

    def as_dict(self):
        return {
            "lambda0": self.lambda0 if self.found else "NotFound",
            "records": self.records,
            "seed": self.seed,
            "sphere_samples": self.sphere_samples,
            "region": self.region,
        }


def _scan_one_lambda(model, lam, region, n_points, seed):
    lam_key = int(round(float(lam) * 1000.0)) % 2**32
    found = _scan(
        h_lambda(model, lam), region, n_points, LAMBDA_SCAN_DIRECTIONS, [seed, lam_key],
        LAMBDA_SCAN_STEPS, signs=(-1.0,), gate=lambda g: _pd_rows(g, PD_FLOOR),
    )
    record = {"lambda": float(lam), "positive_definite": found is not None}
    if found is None:
        record["min_H"] = None
        record["argmin"] = None
        return record
    [(h_min, z, v_min)] = found
    record["min_H"] = h_min
    record["argmin"] = {
        "point": [encode_complex(c) for c in z],
        "direction": [encode_complex(c) for c in v_min],
    }
    return record


def find_lambda0(
    model: FibrationModel,
    region=None,
    sphere_samples=200,
    lambda_schedule=DEFAULT_LAMBDA_SCHEDULE,
    margin=1e-3,
    seed=0,
    threads=None,
) -> LambdaScanResult:
    """First lambda in the schedule with min sampled-and-refined H > margin.

    Each scanned lambda runs :func:`models._scan` on h_lambda with seed key
    [seed, round(1000 lambda) mod 2^32]: ``sphere_samples //
    LAMBDA_SCAN_DIRECTIONS`` points of the polydisc of relative radius
    ``region`` (DEFAULT_FIBRATION_REGION when None), with directions drawn
    from the unit sphere of the standard chart Hermitian structure; the
    lowest H is refined for at most LAMBDA_SCAN_STEPS steps.  The points
    of one lambda are read as one block: h_lambda at all of them in one
    read, gated by positive-definiteness in point order, and the points
    before the first that fails the gate solved and assembled together,
    so a lambda whose gate fails at some point is not positive-definite
    and no later point is solved.  One bisection pass between the last failing
    and first passing schedule entries sharpens the reported threshold.
    Every lambda of the schedule is checked (:func:`lambda_checked`)
    before the first scan.  Everything is deterministic in (seed,
    schedule, sample counts).
    ``threads`` is accepted only as None (see
    :func:`models.single_threaded`).
    """
    single_threaded(threads)
    region = DEFAULT_FIBRATION_REGION if region is None else float(region)
    n_points = max(1, int(sphere_samples) // LAMBDA_SCAN_DIRECTIONS)
    schedule = [lambda_checked(lam) for lam in lambda_schedule]
    records = []
    passing = None
    failing = None
    for lam in schedule:
        rec = _scan_one_lambda(model, lam, region, n_points, seed)
        records.append(rec)
        if rec["positive_definite"] and rec["min_H"] is not None and rec["min_H"] > margin:
            passing = float(lam)
            break
        failing = float(lam)

    lambda0 = passing
    if passing is not None and failing is not None:
        mid = 0.5 * (failing + passing)
        rec = _scan_one_lambda(model, mid, region, n_points, seed)
        records.append(rec)
        if rec["positive_definite"] and rec["min_H"] is not None and rec["min_H"] > margin:
            lambda0 = mid
    return LambdaScanResult(
        lambda0=lambda0,
        records=records,
        seed=int(seed),
        sphere_samples=n_points * LAMBDA_SCAN_DIRECTIONS,
        region=region,
    )
