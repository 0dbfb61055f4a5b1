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

from .charts import ChartField, curvature_tensor, hsc, hsc_of_tensor
from .errors import ConfigError, HermitiaError, NotPositive, RankJump
from .fields import (
    MonomialMap,
    embedded_factor_field,
    from_potential_map,
    scaled_field,
    sum_field,
    twisted_fiber_monomials,
)
from .forms import HermitianForm, limit_form, projection_limit_gram
from .models import (
    DEFAULT_FIBRATION_REGION,
    _map_ordered,
    _refine_direction,
    _sample_polydisc,
    _unit_direction,
    fubini_study_chart,
)

VERTICAL_LEAK_TOL = 1e-12
# Relative floors of the positive-definiteness test _is_pd: the lowest
# eigenvalue must exceed the floor times max(|largest eigenvalue|, 1).
# PD_FLOOR gates h_lambda before a curvature read; VERTICAL_PD_FLOOR gates
# the vertical block of the fiberwise form and of the limit form.
PD_FLOOR = 1e-12
VERTICAL_PD_FLOOR = 1e-10
# Seeded sample points at which FibrationModel checks its two invariants.
VALIDATION_POINTS = 5
DEFAULT_LAMBDA_SCHEDULE = tuple(range(13))


class FibrationModel:
    """Two-form family data on a product chart, base coordinates first.

    b1_field is the fiberwise form (positive-definite on the vertical
    block at sampled points); b2_field is the base pullback (vanishing
    against every vertical direction).  Both invariants are checked at
    seeded sample points on construction.
    """

    def __init__(
        self,
        base_dim,
        fiber_dim,
        b1_field: ChartField,
        b2_field: ChartField,
        region=DEFAULT_FIBRATION_REGION,
        fiber_field_factory=None,
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
        self.region = float(region)
        self.fiber_field_factory = fiber_field_factory
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
            z = _sample_polydisc(rng, self.total_m, self.region)
            g1 = self.b1_field.gram(z)
            if not _is_pd(g1[v, v], VERTICAL_PD_FLOOR):
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


def product_model(base_field: ChartField, fiber_field: ChartField, region=DEFAULT_FIBRATION_REGION, name=""):
    """Product metric data: fiber form and base form, each zero-padded."""
    mb, mf = base_field.m, fiber_field.m
    total = mb + mf
    radius = np.concatenate(
        [np.broadcast_to(base_field.radius, (mb,)), np.broadcast_to(fiber_field.radius, (mf,))]
    )
    b2 = embedded_factor_field(base_field, total, 0, radius=radius, name=name + ".base")
    b1 = embedded_factor_field(fiber_field, total, mb, radius=radius, name=name + ".fiber")
    return FibrationModel(
        mb,
        mf,
        b1,
        b2,
        region=region,
        fiber_field_factory=lambda zb: fiber_field,
        name=name or "prod",
    )


def hirzebruch_model(k, region=DEFAULT_FIBRATION_REGION):
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

    def fiber_at(zb):
        c = (1.0 + float(np.vdot(zb, zb).real)) ** k
        mono = MonomialMap(1, [[(1.0, (0,))], [(np.sqrt(c), (1,))]])
        return from_potential_map(mono, radius=2.0, self_check=False)

    return FibrationModel(
        1, 1, b1, b2, region=region, fiber_field_factory=fiber_at, name="hirz:%d" % k
    )


# ---------------------------------------------------------------------------
# the lambda family


def h_lambda(model: FibrationModel, lam) -> ChartField:
    """Gram field of b1 + e^lambda b2."""
    lam = float(lam)
    return sum_field(
        model.b1_field,
        model.b2_field,
        c2=float(np.exp(lam)),
        name="%s.h(%g)" % (model.name, lam),
    )


def _is_pd(gram, floor):
    w = np.linalg.eigvalsh(gram)
    return bool(w[0] > floor * max(abs(w[-1]), 1.0))


@dataclass
class DecomposedCurvature:
    point: np.ndarray
    lam: float
    direct: object  # CurvatureAt of h_lambda
    formula: object  # CurvatureAt assembled from the summands, or None
    residual: float  # relative gap between the two routes, or None
    applicable: bool  # False when a rank jump blocks the formula route


def r_lambda_decomposed(model: FibrationModel, lam, z) -> DecomposedCurvature:
    """Curvature of h_lambda, by the direct route and by summand assembly.

    The assembled route needs constant-rank summands near the point; at a
    rank jump it is marked not applicable and only the direct curvature
    is reported.
    """
    z = np.asarray(z, dtype=complex)
    field = h_lambda(model, lam)
    if not _is_pd(field.gram(z), PD_FLOOR):
        raise NotPositive("h_lambda is not positive-definite at the point")
    direct = curvature_tensor(field, z)
    from .sequences import sum_curvature

    try:
        formula = sum_curvature(
            model.b1_field, scaled_field(model.b2_field, np.exp(float(lam))), z
        )
    except RankJump:
        return DecomposedCurvature(
            point=z, lam=float(lam), direct=direct, formula=None,
            residual=None, applicable=False,
        )
    residual = np.linalg.norm(formula.tensor - direct.tensor) / (
        1.0 + np.linalg.norm(direct.tensor)
    )
    return DecomposedCurvature(
        point=z, lam=float(lam), direct=direct, formula=formula,
        residual=float(residual), applicable=True,
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


def q_lambda_limit(model: FibrationModel, z, lambda_grid=(2.0, 4.0, 6.0, 8.0)) -> QuotientLimitRecord:
    """Pointwise quotient family of (b1, e^lambda b2) and its limit.

    Delegates to the form-level limit machinery and reports convergence
    errors, the limit's positivity properties, and the residual of the
    projection formula (j j_dag)^* b1 over a complement of Ker b2.  For a
    base pullback b2 the limit vanishes on the vertical subspace, so
    ``positive_on_vertical`` is an honest finding, not a requirement.
    """
    z = np.asarray(z, dtype=complex)
    b1 = model.b1_field.form_at(z)
    b2 = model.b2_field.form_at(z)
    q_values, q_inf = limit_form(b1, b2, lambda_grid)

    errors = [float(np.linalg.norm(q.gram - q_inf.gram)) for q in q_values]
    scale = 1.0 + float(np.linalg.norm(q_inf.gram))
    ratios = [
        cur / prev if prev > 1e-13 * scale and cur > 1e-13 * scale else None
        for prev, cur in zip(errors, errors[1:])
    ]

    # independent projection route, same recipe the form layer certifies
    check = projection_limit_gram(b1, b2)
    projection_residual = float(np.linalg.norm(check - q_inf.gram)) / scale

    v = slice(model.base_dim, model.total_m)
    positive_on_vertical = _is_pd(q_inf.gram[v, v], VERTICAL_PD_FLOOR)

    return QuotientLimitRecord(
        point=z,
        lambda_grid=tuple(float(l) for l in lambda_grid),
        errors=errors,
        ratios=ratios,
        q_inf=q_inf,
        semipositive=q_inf.is_positive_semidefinite(),
        positive_on_vertical=positive_on_vertical,
        projection_residual=projection_residual,
        trivial=bool(max(errors, default=0.0) < 1e-13 and np.linalg.norm(q_inf.gram) < 1e-13),
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


def vertical_hsc_check(
    model: FibrationModel, z_grid, lambdas=(3.0, 4.0, 5.0, 6.0, 7.0, 8.0),
    directions=4, seed=0,
) -> VerticalHscReport:
    """Sectional curvature of h_lambda along vertical directions.

    For every grid point and sampled vertical direction, H must stay
    positive for all tested lambda, and the gap to the intrinsic fiber
    curvature must shrink as lambda grows.  A flat fiber metric is
    reported via ``fiber_flat`` instead of failing.
    """
    z_grid = [np.asarray(z, dtype=complex) for z in z_grid]
    mb, mf = model.base_dim, model.fiber_dim
    rng = np.random.default_rng(np.random.SeedSequence([seed, 53]))
    dirs = [_unit_direction(rng, mf) for _ in range(directions)]

    fiber_h = {}
    if model.fiber_field_factory is not None:
        for i, z in enumerate(z_grid):
            fib = model.fiber_field_factory(z[:mb])
            fiber_h[i] = [hsc(fib, z[mb:], v) for v in dirs]

    min_h = np.inf
    gap_by_lambda = {}
    for lam in lambdas:
        field = h_lambda(model, lam)
        worst_gap = 0.0
        for i, z in enumerate(z_grid):
            curv = curvature_tensor(field, z)
            g = curv.form_at_point.gram
            for n, v in enumerate(dirs):
                vfull = np.zeros(model.total_m, dtype=complex)
                vfull[mb:] = v
                h_val = float(np.real(hsc_of_tensor(curv.tensor, g, vfull)))
                min_h = min(min_h, h_val)
                if i in fiber_h:
                    worst_gap = max(worst_gap, abs(h_val - fiber_h[i][n]))
        gap_by_lambda[float(lam)] = worst_gap

    flat = bool(
        fiber_h and max(abs(h) for row in fiber_h.values() for h in row) < 1e-8
    )
    return VerticalHscReport(
        points=len(z_grid),
        lambdas=tuple(float(l) for l in lambdas),
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


def _scan_one_lambda(model, lam, region, n_points, directions_per_point, steps, seed, threads):
    field = h_lambda(model, lam)
    lam_key = int(round(float(lam) * 1000.0)) % 2**32

    def scan_point(idx):
        rng = np.random.default_rng(np.random.SeedSequence([seed, lam_key, idx]))
        z = _sample_polydisc(rng, model.total_m, region)
        g = field.gram(z)
        if not _is_pd(g, PD_FLOOR):
            return None, z
        curv = curvature_tensor(field, z)
        local = []
        for _ in range(directions_per_point):
            v = _unit_direction(rng, model.total_m)
            local.append((float(np.real(hsc_of_tensor(curv.tensor, g, v))), z, v))
        return local, curv

    results = _map_ordered(scan_point, range(n_points), threads)
    record = {"lambda": float(lam), "positive_definite": True}
    lo = None
    for local, curv in results:
        if local is None:
            record["positive_definite"] = False
            record["min_H"] = None
            record["argmin"] = None
            return record
        for h, z, v in local:
            if lo is None or h < lo[0]:
                lo = (h, z, v, curv)
    v_min, h_min = _refine_direction(
        lo[3].tensor, lo[3].form_at_point.gram, lo[2], steps, sign=-1.0
    )
    record["min_H"] = float(h_min)
    record["argmin"] = {
        "point": [[float(c.real), float(c.imag)] for c in lo[1]],
        "direction": [[float(c.real), float(c.imag)] for c in v_min],
    }
    return record


def find_lambda0(
    model: FibrationModel,
    region=None,
    sphere_samples=200,
    lambda_schedule=DEFAULT_LAMBDA_SCHEDULE,
    margin=1e-3,
    seed=0,
    directions_per_point=20,
    optimizer_steps=40,
    threads=None,
) -> LambdaScanResult:
    """First lambda in the schedule with min sampled-and-refined H > margin.

    Directions are drawn from the unit sphere of the standard chart
    Hermitian structure; curvature is measured with h_lambda itself.  One
    bisection pass between the last failing and first passing schedule
    entries sharpens the reported threshold.  Everything is deterministic
    in (seed, schedule, sample counts); thread count never changes the
    result, only the wall time.
    """
    region = model.region if region is None else float(region)
    n_points = max(1, int(sphere_samples) // directions_per_point)
    records = []
    passing = None
    failing = None
    for lam in lambda_schedule:
        rec = _scan_one_lambda(
            model, lam, region, n_points, directions_per_point,
            optimizer_steps, seed, threads,
        )
        records.append(rec)
        if rec["positive_definite"] and rec["min_H"] is not None and rec["min_H"] > margin:
            passing = float(lam)
            break
        failing = float(lam)

    lambda0 = passing
    if passing is not None and failing is not None:
        mid = 0.5 * (failing + passing)
        rec = _scan_one_lambda(
            model, mid, region, n_points, directions_per_point,
            optimizer_steps, seed, threads,
        )
        records.append(rec)
        if rec["positive_definite"] and rec["min_H"] is not None and rec["min_H"] > margin:
            lambda0 = mid
    return LambdaScanResult(
        lambda0=lambda0,
        records=records,
        seed=int(seed),
        sphere_samples=n_points * directions_per_point,
        region=region,
    )
