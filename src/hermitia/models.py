"""Model geometries: projective space, Grassmannian charts, and scans.

The Grassmannian Gram matrix is built twice, by independent routes:

* a closed form kron(P, Q^T) with P = (I + Z Z*)^-1 and
  Q = (I + Z* Z)^-1, derived from b(V, W) = tr(P V Q W^H) on the chart
  {row space of [I | Z]};
* the pullback of the projective potential along the minor (Pluecker)
  coordinates, log ||p(Z)||^2, evaluated from the exact monomial
  machinery in :mod:`hermitia.fields`.

The closed form is certified against the potential route at seeded
points during construction; the two stay within 1e-8 of each other on
the whole chart region, which is what the minor-coordinate scan in the
acceptance suite rechecks at scale.

The first and mixed second derivatives of both share one routine, the
log-det jet of :mod:`hermitia.fields`: the potential is log det(A A^H)
with the k-row frame A = [I | Z] for the closed form and the one-row
frame A = p(Z)^T for the minor route, equal by Cauchy-Binet.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .charts import (
    ChartField,
    FieldRows,
    _detached,
    _leading,
    _norm,
    _reject_directions,
    _require_gate_domain,
    _row_norms,
    _Rows,
    _stencil_reads,
    assemble_rows,
    curvature_tensor,
    hsc_of_tensor,
    metric_curvature,
    sample_box,
)
from .errors import ConfigError, HermitiaError
from .fields import MonomialMap, _logdet_derivatives, from_potential_map, fs_monomials
from .forms import require_finite_rows
from .report import encode_complex, worst_of

FS_CHART_RADIUS = 2.0
GR_CHART_RADIUS = 2.0
DEFAULT_FS_REGION = 0.9
DEFAULT_GR_REGION = 0.7
DEFAULT_FIBRATION_REGION = 0.7
# Sampling of einstein_residual: this many points in the polydisc of this
# relative radius.
EINSTEIN_POINTS = 10
EINSTEIN_REGION = 0.5
# Largest relative gap between the closed-form Grassmannian Gram and the
# minor-potential Gram at the certification points of grassmannian_chart.
PLUECKER_CERT_TOL = 1e-8
# The direction walk of _refine_direction stops at a tangent gradient
# below this norm; its line search tries these steps along the gradient,
# each half the one before.
GRADIENT_FLOOR = 1e-14
LINE_SEARCH_STEPS = 0.1 * 0.5 ** np.arange(20)


def fubini_study_chart(n):
    """Standard-chart metric field of complex projective n-space."""
    if n < 1:
        raise ConfigError("projective space needs n >= 1")
    return from_potential_map(
        fs_monomials(n), radius=FS_CHART_RADIUS, name="fs:%d" % n
    )


# ---------------------------------------------------------------------------
# Grassmannian: minor-coordinate potential route


def _minor_monomials(k, n, cols):
    """The k x k minor of [I_k | Z] on a column subset, as monomial data.

    Entries are either constants (identity block) or single chart
    variables Z[i][j] at flat index i*(n-k)+j, so each permutation term
    contributes one monomial with coefficient equal to the signature.
    """
    m = k * (n - k)
    terms = {}
    for perm in itertools.permutations(range(k)):
        # signature by counting inversions
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        exps = [0] * m
        dead = False
        for row in range(k):
            col = cols[perm[row]]
            if col < k:
                if col != row:
                    dead = True
                    break
            else:
                exps[row * (n - k) + (col - k)] += 1
        if dead:
            continue
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + (-1.0 if inv % 2 else 1.0)
    return [(c, e) for e, c in terms.items() if c != 0.0]


def pluecker_monomials(k, n):
    """Monomial map whose components are all k x k minors of [I_k | Z]."""
    comps = []
    for cols in itertools.combinations(range(n), k):
        mono = _minor_monomials(k, n, cols)
        if mono:
            comps.append(mono)
    return MonomialMap(k * (n - k), comps)


def pluecker_pullback(k, n):
    """Gram field of the potential log ||p(Z)||^2 in minor coordinates."""
    if not 1 <= k < n:
        raise ConfigError("need 1 <= k < n")
    return from_potential_map(
        pluecker_monomials(k, n), radius=GR_CHART_RADIUS, name="pluecker:%d:%d" % (k, n)
    )


def pluecker_gap(field: ChartField, k, n, points):
    """max over ``points`` of |G1 - G2| / (1 + |G2|), G1 the Gram matrix of
    ``field`` and G2 that of the minor-potential route
    :func:`pluecker_pullback` of Gr(k, n): the gap between the two
    Grassmannian constructions.  The gap reads Gram matrices only, so its
    field of the minor potential is built without the derivative
    self-check.  Each field reads all the points in one
    :meth:`~hermitia.charts.ChartField.gram_stack` call, and the norms of
    the C-order rows are :func:`charts._row_norms`, each equal to
    ``np.linalg.norm`` of its row bit for bit."""
    oracle = from_potential_map(pluecker_monomials(k, n), radius=GR_CHART_RADIUS, self_check=False)
    zs = np.asarray(points, dtype=complex).reshape(-1, field.m)
    if not len(zs):
        return 0.0
    g1, g2 = field.gram_stack(zs), oracle.gram_stack(zs)
    return float(np.max(_row_norms(g1 - g2) / (1.0 + _row_norms(g2))))


# ---------------------------------------------------------------------------
# Grassmannian: closed-form route


def _grassmann_gram_stack(zs, k, n):
    """kron(P, Q^T) with P = (I + Z Z*)^-1 and Q = (I + Z* Z)^-1 at a
    (B, m) stack of points, the Gram kernel of :func:`grassmannian_chart`:
    batched inverses, and the Kronecker product as the broadcast product
    np.kron itself forms, so each row equals np.kron at its point bit for
    bit."""
    zm = zs.reshape(-1, k, n - k)
    zh = zm.conj().swapaxes(-1, -2)
    p = np.linalg.inv(np.eye(k) + zm @ zh)
    qt = np.linalg.inv(np.eye(n - k) + zh @ zm).swapaxes(-1, -2)
    m = k * (n - k)
    return (p[:, :, None, :, None] * qt[:, None, :, None, :]).reshape(-1, m, m)


@dataclass
class GrassmannChartModel:
    """Chart model of the k-planes in C^n with its tangent metric field."""

    k: int
    n: int
    field: ChartField

    @property
    def m(self):
        return self.k * (self.n - self.k)

    def flat_index(self, a, b):
        return a * (self.n - self.k) + b

    def direction(self, matrix):
        """Flatten a k x (n-k) tangent matrix into chart coordinates."""
        return np.asarray(matrix, dtype=complex).reshape(self.m)

    @property
    def hsc_lower(self):
        """2 / r with r = min(k, n - k), the rank of Gr(k, n) as a symmetric
        space: attained at the center by a direction with r equal singular
        values, since H = 2 sum(s^4) / (sum(s^2))^2 there."""
        return 2.0 / min(self.k, self.n - self.k)

    @property
    def hsc_upper(self):
        return 2.0


def grassmannian_chart(k, n, certify=True):
    """Closed-form chart metric, certified against the minor-potential route.

    Its d and dd are those of log det(A A^H) for the frame A = [I | Z],
    whose derivatives are the constant unit matrices
    (:func:`fields._logdet_derivatives`)."""
    if not 1 <= k < n:
        raise ConfigError("need 1 <= k < n")
    m = k * (n - k)

    def stack_fn(zs):
        return _grassmann_gram_stack(zs, k, n)

    units = np.zeros((m, k, n), dtype=complex)
    units[:, :, k:] = np.eye(m).reshape(m, k, n - k)

    def frame(zs):
        a = np.empty((len(zs), k, n), dtype=complex)
        a[:, :, :k] = np.eye(k)
        a[:, :, k:] = zs.reshape(-1, k, n - k)
        return a, units[None], None

    d_fn, dd_fn = _logdet_derivatives(frame)
    field = ChartField(
        m,
        m,
        stack_fn,
        radius=GR_CHART_RADIUS,
        d_fn=d_fn,
        dd_fn=dd_fn,
        name="gr:%d:%d" % (k, n),
    )
    if certify:
        rng = np.random.default_rng(np.random.SeedSequence([19, k, n]))
        err = pluecker_gap(field, k, n, [sample_box(rng, m, 0.35) for _ in range(3)])
        if err > PLUECKER_CERT_TOL:
            raise HermitiaError(
                "closed-form chart metric disagrees with the minor-potential "
                "construction (worst gap %.2e over the certification points)" % err
            )
    return GrassmannChartModel(k=k, n=n, field=field)


# ---------------------------------------------------------------------------
# Ricci form and the Einstein check


def ricci(field: ChartField, z):
    """Ricci Gram matrix -d dbar log det G at a point (analytic route),
    from the one curvature record of :func:`charts.metric_curvature`."""
    return _ricci(metric_curvature(field, z))


def _ricci(curv):
    """Ric[j, k] = sum_st G^+[s, t] R[k, j, s, t] from a curvature record."""
    ric = np.einsum("st,kjst->jk", curv.form.pinv, curv.tensor)
    return 0.5 * (ric + ric.conj().T)


def einstein_residual(field: ChartField, constant, seed=0):
    """max over EINSTEIN_POINTS sampled points of ||Ric - c G|| / ||G||,
    a :func:`~hermitia.report.worst_of`, so a NaN at any point is kept.
    Ric and G come from one curvature record per point."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    resids = []
    for _ in range(EINSTEIN_POINTS):
        curv = metric_curvature(field, _sample_polydisc(rng, field.m, EINSTEIN_REGION))
        g = curv.form.gram
        resids.append(np.linalg.norm(_ricci(curv) - constant * g) / np.linalg.norm(g))
    return worst_of(resids)


# ---------------------------------------------------------------------------
# extremal HSC scan


@dataclass
class HscScanResult:
    min_H: float
    max_H: float
    argmin: tuple
    argmax: tuple
    samples: int
    region: float
    seed: int

    def as_dict(self):
        return {
            "min_H": self.min_H,
            "max_H": self.max_H,
            "argmin_point": [encode_complex(v) for v in self.argmin[0]],
            "argmin_direction": [encode_complex(v) for v in self.argmin[1]],
            "argmax_point": [encode_complex(v) for v in self.argmax[0]],
            "argmax_direction": [encode_complex(v) for v in self.argmax[1]],
            "samples": self.samples,
            "region": self.region,
            "seed": self.seed,
        }


def _polydisc(u, t, radius):
    """Points of the polydisc of ``radius`` from uniform draws ``u`` (of
    the squared modulus) and ``t`` (of the angle), elementwise."""
    return radius * np.sqrt(u) * np.exp(2j * np.pi * t)


def _sample_polydisc(rng, m, radius):
    return _polydisc(rng.random(m), rng.random(m), radius)


def _unit_rows(x):
    """Unit directions from normal draws ``x`` of shape (..., 2, m): each
    row takes the real parts from x[..., 0, :] and the imaginary parts
    from x[..., 1, :], and is divided by its norm."""
    v = x[..., 0, :] + 1j * x[..., 1, :]
    flat = v.reshape(-1, v.shape[-1])
    return (flat / _row_norms(flat)[:, None]).reshape(v.shape)


def _unit_directions(rng, m, count):
    """``count`` random unit directions in C^m, shape (count, m), from one
    draw: each row takes the real and then the imaginary parts of m
    normal samples in stream order, and is divided by its norm."""
    return _unit_rows(rng.standard_normal((count, 2, m)))


def _refine_direction(tensor, g, v0, steps, sign):
    """Projected gradient walk of H on the direction sphere, with the
    closed-form gradient and a halving line search; ``sign`` -1
    descends, +1 ascends.

    The gradient is 2 dH/dconj(v), over the real and imaginary parts of
    v.  With N = R(v, conj(v), v, conj(v)) and D = v^H G v, H = Re N / D^2
    and 2 dH/dconj(v) = (dN/dconj(v) + conj(dN/dv)) / D^2 - 4 Re N (G v) /
    D^3, where N = conj(v) . dN/dconj(v) / 2 because N has degree two in
    conj(v).  On the (m^2, m^2) matrix R2 of :func:`charts.hsc_of_tensor`,
    with w_ab = v_a conj(v_b), X = (R2 w) and Y = (w R2) read as (m, m)
    matrices give dN/dconj(v) = v (X + Y) and dN/dv = (X + Y) conj(v).

    Each step tries LINE_SEARCH_STEPS[0] first, alone; when it does not
    improve H, the other candidates are scored in one stacked
    :func:`charts.hsc_of_tensor` call, their rows normalized by
    :func:`charts._row_norms`, and the walk takes the first that
    improves.  Each candidate and its H equal those of the halving walk
    that tries the steps one at a time, bit for bit, so the walk is that
    walk; the walk stops at a step where none improves.

    The loop pays no per-step overhead that would change no bit: R2 and
    the step constants are set up once, the gradient and the
    one-candidate score are written out on 1-D vectors (the products of
    :func:`charts.hsc_of_tensor`, each one row), and each norm is
    :func:`charts._norm`."""
    m = v0.size
    r2 = tensor.reshape(m * m, m * m)
    first = sign * LINE_SEARCH_STEPS[0]
    halvings = (sign * LINE_SEARCH_STEPS[1:])[:, None]
    v = v0 / _norm(v0)
    best = hsc_of_tensor(tensor, g, v)
    for _ in range(steps):
        vc = v.conj()
        w = (v[:, None] * vc).reshape(m * m)
        xy = (r2 @ w + w @ r2).reshape(m, m)
        dn_dvbar = v @ xy
        dn_dv = xy @ vc
        num = 0.5 * (vc @ dn_dvbar).real
        gv = g @ v
        den = (vc @ gv).real
        grad = (dn_dvbar + dn_dv.conj()) / den**2 - 4.0 * num * gv / den**3
        grad -= np.vdot(v, grad).real * v  # tangent to the sphere
        if _norm(grad) < GRADIENT_FLOOR:
            break
        cand = v + first * grad
        cand /= _norm(cand)
        cc = cand.conj()
        w = (cand[:, None] * cc).reshape(m * m)
        den = (cc @ g @ cand).real
        if not den > 0.0:
            _reject_directions(cand[None], np.array([den]))
        val = float((w @ r2 @ w).real / den**2)
        if not sign * (val - best) > 0:
            cands = v + halvings * grad
            cands /= _row_norms(cands)[:, None]
            vals = hsc_of_tensor(tensor, g, cands)
            better = np.flatnonzero(sign * (vals - best) > 0)
            if not better.size:
                break
            cand, val = cands[better[0]], float(vals[better[0]])
        v, best = cand, val
    return v, best


def single_threaded(threads):
    """Scans run on the calling thread; the ``threads`` keyword of
    :func:`hsc_extremes` and :func:`fibration.find_lambda0` remains for
    callers that pass None, and any other value is a ConfigError."""
    if threads is not None:
        raise ConfigError("scans run on one thread; threads must be None, got %r" % (threads,))


# The range of each scan argument, by the name its scan takes it under:
# (test, the rule a ConfigError states).
_SCAN_ARGUMENTS = {
    "samples": (lambda x: x >= 1, "at least 1"),
    "sphere_samples": (lambda x: x >= 1, "at least 1"),
    "directions_per_point": (lambda x: x >= 1, "at least 1"),
    "optimizer_steps": (lambda x: x >= 0, "at least 0"),
    "region": (lambda x: np.isfinite(x) and x > 0, "finite and > 0"),
    "margin": (np.isfinite, "finite"),
}


def require_scan_arguments(**arguments):
    """Raise ConfigError naming the first of ``arguments`` (keywords named
    as the scan names them) out of its range in _SCAN_ARGUMENTS, before
    any draw: a sample or direction count at least 1, a step count at
    least 0, a region finite and > 0, a margin finite."""
    for name, value in arguments.items():
        test, rule = _SCAN_ARGUMENTS[name]
        if not test(value):
            raise ConfigError("%s = %r: it must be %s" % (name, value, rule))


def _draw(m, region, n_points, directions_per_point, seed_key):
    """The scan's (n, m) points and (n, d, m) unit directions: point idx,
    then its d directions, drawn from SeedSequence(seed_key + [idx]) in
    the stream order of :func:`_sample_polydisc` and then
    :func:`_unit_directions`.  Only the raw draws are taken per point,
    into preallocated arrays; the polydisc map (:func:`_polydisc`) and
    the normalization (:func:`_unit_rows`) run once on the whole block,
    elementwise and row by row, so every point and direction equals its
    per-point draw bit for bit.  The generator stays one per point: one
    stream for the block would move every sampled point."""
    u = np.empty((n_points, m))
    t = np.empty((n_points, m))
    x = np.empty((n_points, directions_per_point, 2, m))
    for idx in range(n_points):
        rng = np.random.default_rng(np.random.SeedSequence(seed_key + [idx]))
        rng.random(out=u[idx])
        rng.random(out=t[idx])
        rng.standard_normal(out=x[idx])
    return _polydisc(u, t, region), _unit_rows(x)


def _point_rows(field, zs):
    """The stacked (tensors, Grams) of the points of zs before the first
    whose read fails, as :class:`charts._Rows` whose error is that
    point's: one :func:`charts.curvature_tensor` call per point, looked
    up on this module, and no read after the first that fails.  Each
    record is copied into the stacks and dropped, so a scan holds no more
    than its stacks."""
    n, m, r = len(zs), field.m, field.shape
    tensors = np.empty((n, m, m, r, r), dtype=complex)
    grams = np.empty((n, r, r), dtype=complex)
    for k, z in enumerate(zs):
        try:
            curv = curvature_tensor(field, z)
        except HermitiaError as err:
            return _Rows((tensors[:k], grams[:k]), k, _detached(err))
        tensors[k] = curv.tensor
        grams[k] = curv.form.gram
    return _Rows((tensors, grams), n, None)


class _Rejected(HermitiaError):
    """The gate of a gated scan rejects a point: raised in the block read
    (:func:`_block_rows`) so that :func:`charts._leading` cuts there, and
    read by :func:`_scan` as None, never raised to a caller."""


def _block_rows(field, zs, gate):
    """The stacked (tensors, Grams) of the points of zs before the first
    that fails, as :class:`charts._Rows` whose error is that point's: a
    point's checks are, in order, the finite check of G, ``gate`` (a
    rejection is :class:`_Rejected`), OutOfDomain (the gate's margin),
    then the rank gate, the solve and the assembly.

    G is read once, at the gate stencils of all points, in one
    :meth:`ChartField.gram_stack` call with no domain check before it;
    the finite check and ``gate`` take its centre rows, which equal a
    read of G at the points bit for bit under the kernel's row contract,
    and one :class:`charts.FieldRows` solves on the stencil rows, then one
    :func:`charts.assemble_rows` reads the tensors.  One
    :func:`charts._leading` call runs these on the stack, so no point
    after the first that fails is solved; a block that fails runs them
    again on the leading parts that it bisects.  The stencils of the
    points past a cut are read too (on the default lambda schedule no
    registry model's gate rejects a point), and so are those of a point
    past the chart's edge, which the kernel must accept."""
    grams = _stencil_reads(field, zs)[0]
    centres = grams[:, 0]

    def rows(zs):
        n = len(zs)
        require_finite_rows(centres[:n], "Gram matrix", zs)
        if not gate(centres[:n]).all():
            raise _Rejected("the gate rejects a point of the block")
        _require_gate_domain(field, zs)
        solves = FieldRows(field, zs, reads=lambda: grams[:n]).solves
        return assemble_rows(field, zs, solves), solves.forms.gram

    return _leading(rows, zs)


def _scan(field, region, n_points, directions_per_point, seed_key, steps, signs, gate=None):
    """The seeded sample-then-refine pass of every HSC scan.

    The block's points and their ``directions_per_point`` unit directions
    are drawn by :func:`_draw`.  Each point's curvature tensor and Gram
    matrix are read once, and the points read are scored in one stacked
    :func:`charts.hsc_of_tensor` call, each direction its own row.  For
    each sign in ``signs`` (-1 for the minimum, +1 for the maximum) the
    incumbent is the first strictly lower (higher) H in (point,
    direction) order, the first extreme of the block's finite H; its
    direction is then refined on its point's curvature tensor by
    :func:`_refine_direction` for at most ``steps`` steps.  Returns one
    (H, point, direction) per sign.

    Without a gate each point is read by its own curvature_tensor call
    (:func:`_point_rows`).  With ``gate``, a test of a (B, n, n) stack of
    finite Gram matrices that returns one bool per matrix, each a function
    of its matrix alone, the points are read as one block
    (:func:`_block_rows`).  Either way the points before the first that
    fails are scored first, so a rejected direction among them raises
    before that point's error; the scan then returns None when the gate
    rejected that point, or raises its error.  Results, None and errors
    are those of checking, gating, reading and scoring the points one at
    a time.
    """
    zs, dirs = _draw(field.m, region, n_points, directions_per_point, seed_key)
    if gate is None:
        # hsc_extremes keeps one curvature_tensor call per point: the
        # gr-scan benchmark clocks a point as the wall time of that call,
        # so the block read waits for a benchmark that clocks it another
        # way.  The draw and the scoring are per block all the same.
        rows = _point_rows(field, zs)
    else:
        rows = _block_rows(field, zs, gate)
    if rows.n:
        tensors, grams = rows.value
        h = hsc_of_tensor(tensors, grams, dirs[: rows.n])
    if isinstance(rows.error, _Rejected):
        return None
    if rows.error is not None:
        rows.raise_error()
    extremes = []
    for sign in signs:
        idx, i = divmod(int(np.argmax(sign * h)), directions_per_point)
        v, h_best = _refine_direction(tensors[idx], grams[idx], dirs[idx, i], steps, sign)
        extremes.append((float(h_best), zs[idx], v))
    return extremes


def hsc_extremes(
    field: ChartField,
    region,
    samples=2000,
    optimizer_steps=200,
    seed=0,
    directions_per_point=20,
    threads=None,
):
    """Seeded sample-then-refine scan for extremal sectional curvature.

    ``samples // directions_per_point`` points of the polydisc of
    relative radius ``region``, each with ``directions_per_point``
    directions, go through :func:`_scan` with seed key [seed]; the
    directions of the lowest and of the highest sampled H are refined by
    descent and ascent for at most ``optimizer_steps`` steps.  The result
    depends on the seed and the sample counts only.  ``threads`` is
    accepted only as None (see :func:`single_threaded`), and the other
    arguments are checked before any draw (:func:`require_scan_arguments`).
    """
    single_threaded(threads)
    require_scan_arguments(
        region=region, samples=samples, directions_per_point=directions_per_point,
        optimizer_steps=optimizer_steps,
    )
    n_points = max(1, samples // directions_per_point)
    (h_min, z_min, v_min), (h_max, z_max, v_max) = _scan(
        field, region, n_points, directions_per_point, [seed], optimizer_steps,
        signs=(-1.0, 1.0),
    )
    return HscScanResult(
        min_H=h_min,
        max_H=h_max,
        argmin=(z_min, v_min),
        argmax=(z_max, v_max),
        samples=n_points * directions_per_point,
        region=float(region),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# model registry


@dataclass
class ModelEntry:
    id: str
    kind: str  # "metric" or "fibration"
    field: ChartField = None
    grassmann: GrassmannChartModel = None
    fibration: object = None
    einstein_constant: float = None
    default_region: float = DEFAULT_FS_REGION
    hsc_lower: float = None
    hsc_upper: float = None


def _parse_fs_token(token):
    if not token.startswith("fs"):
        raise ConfigError("expected a projective-space token, got %r" % token)
    try:
        return int(token[2:])
    except ValueError:
        raise ConfigError("bad projective-space token %r" % token)


def resolve_model(model_id: str) -> ModelEntry:
    """Look up a model id like "fs:2", "gr:2:4", "prod:fs1:fs1", "hirz:1"."""
    parts = str(model_id).split(":")
    try:
        if parts[0] == "fs" and len(parts) == 2:
            n = int(parts[1])
            return ModelEntry(
                id=model_id,
                kind="metric",
                field=fubini_study_chart(n),
                einstein_constant=float(n + 1),
                default_region=DEFAULT_FS_REGION,
                hsc_lower=2.0,
                hsc_upper=2.0,
            )
        if parts[0] == "gr" and len(parts) == 3:
            k, n = int(parts[1]), int(parts[2])
            gcm = grassmannian_chart(k, n)
            return ModelEntry(
                id=model_id,
                kind="metric",
                field=gcm.field,
                grassmann=gcm,
                einstein_constant=float(n),
                default_region=DEFAULT_GR_REGION,
                hsc_lower=gcm.hsc_lower,
                hsc_upper=gcm.hsc_upper,
            )
        if parts[0] == "prod" and len(parts) == 3:
            from .fibration import product_model

            base = fubini_study_chart(_parse_fs_token(parts[1]))
            fiber = fubini_study_chart(_parse_fs_token(parts[2]))
            model = product_model(base, fiber)
            return ModelEntry(
                id=model_id,
                kind="fibration",
                fibration=model,
                default_region=DEFAULT_FIBRATION_REGION,
            )
        if parts[0] == "hirz" and len(parts) == 2:
            from .fibration import hirzebruch_model

            model = hirzebruch_model(int(parts[1]))
            return ModelEntry(
                id=model_id,
                kind="fibration",
                fibration=model,
                default_region=DEFAULT_FIBRATION_REGION,
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError("malformed model id %r: %s" % (model_id, exc))
    raise ConfigError("unknown model id %r" % model_id)
