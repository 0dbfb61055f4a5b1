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
    _row_norms,
    assemble_rows,
    curvature_tensor,
    hsc_of_tensor,
    metric_curvature,
    sample_box,
    solve_points,
)
from .errors import ConfigError, HermitiaError
from .fields import MonomialMap, _logdet_derivatives, from_potential_map, fs_monomials
from .report import encode_complex

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
    """Ricci Gram matrix -d dbar log det G at a point (analytic route):
    Ric[j, k] = sum_st G^+[s, t] R[k, j, s, t] from the one curvature
    record of :func:`charts.metric_curvature`."""
    curv = metric_curvature(field, z)
    ric = np.einsum("st,kjst->jk", curv.form.pinv, curv.tensor)
    return 0.5 * (ric + ric.conj().T)


def einstein_residual(field: ChartField, constant, seed=0):
    """max over EINSTEIN_POINTS sampled points of ||Ric - c G|| / ||G||."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    worst = 0.0
    for _ in range(EINSTEIN_POINTS):
        z = _sample_polydisc(rng, field.m, EINSTEIN_REGION)
        g = field.gram(z)
        resid = np.linalg.norm(ricci(field, z) - constant * g) / np.linalg.norm(g)
        worst = max(worst, float(resid))
    return worst


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


def _sample_polydisc(rng, m, radius):
    u = np.sqrt(rng.random(m))
    t = rng.random(m)
    return radius * u * np.exp(2j * np.pi * t)


def _unit_directions(rng, m, count):
    """``count`` random unit directions in C^m, shape (count, m), from one
    draw: each row takes the real and then the imaginary parts of m
    normal samples in stream order, and is divided by its norm."""
    x = rng.standard_normal((count, 2, m))
    v = x[:, 0] + 1j * x[:, 1]
    return v / _row_norms(v)[:, None]


def _hsc_gradient(tensor, g, v):
    """2 dH/dconj(v), the gradient of H over the real and imaginary parts
    of v, in closed form.

    With N = R(v, conj(v), v, conj(v)) and D = v^H G v, H = Re N / D^2 and
    2 dH/dconj(v) = (dN/dconj(v) + conj(dN/dv)) / D^2 - 4 Re N (G v) / D^3,
    where N = conj(v) . dN/dconj(v) / 2 because N has degree two in conj(v).
    On the (m^2, m^2) matrix R2 of :func:`charts.hsc_of_tensor`, with
    w_ab = v_a conj(v_b), X = (R2 w) and Y = (w R2) read as (m, m)
    matrices give dN/dconj(v) = v (X + Y) and dN/dv = (X + Y) conj(v).
    """
    m = v.size
    r2 = tensor.reshape(m * m, m * m)
    vc = v.conj()
    w = (v[:, None] * vc).reshape(m * m)
    xy = (r2 @ w + w @ r2).reshape(m, m)
    dn_dvbar = v @ xy
    dn_dv = xy @ vc
    num = 0.5 * np.real(vc @ dn_dvbar)
    gv = g @ v
    den = np.real(vc @ gv)
    return (dn_dvbar + dn_dv.conj()) / den**2 - 4.0 * num * gv / den**3


def _refine_direction(tensor, g, v0, steps, sign):
    """Projected gradient walk of H on the direction sphere, with the
    closed-form gradient of :func:`_hsc_gradient` and a halving line
    search; ``sign`` -1 descends, +1 ascends.

    Each step tries LINE_SEARCH_STEPS[0] first, alone; when it does not
    improve H, the other candidates are scored in one stacked
    :func:`charts.hsc_of_tensor` call, their rows normalized by
    :func:`charts._row_norms`, and the walk takes the first that
    improves.  Each candidate and its H equal those of the halving walk
    that tries the steps one at a time, bit for bit, so the walk is that
    walk; the walk stops at a step where none improves."""
    v = v0 / np.linalg.norm(v0)
    best = hsc_of_tensor(tensor, g, v)
    for _ in range(steps):
        grad = _hsc_gradient(tensor, g, v)
        grad -= np.real(np.vdot(v, grad)) * v  # tangent to the sphere
        if np.linalg.norm(grad) < GRADIENT_FLOOR:
            break
        cand = v + sign * LINE_SEARCH_STEPS[0] * grad
        cand /= np.linalg.norm(cand)
        val = hsc_of_tensor(tensor, g, cand)
        if not sign * (val - best) > 0:
            cands = v + (sign * LINE_SEARCH_STEPS[1:])[:, None] * grad
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


def _draw(m, region, n_points, directions_per_point, seed_key):
    """The scan's (n, m) points and (n, d, m) unit directions: point idx,
    then its d directions, drawn from SeedSequence(seed_key + [idx])."""
    zs = np.empty((n_points, m), dtype=complex)
    dirs = np.empty((n_points, directions_per_point, m), dtype=complex)
    for idx in range(n_points):
        rng = np.random.default_rng(np.random.SeedSequence(seed_key + [idx]))
        zs[idx] = _sample_polydisc(rng, m, region)
        dirs[idx] = _unit_directions(rng, m, directions_per_point)
    return zs, dirs


def _point_rows(field, zs):
    """(tensor, Gram) at each point in turn, from one
    :func:`charts.curvature_tensor` call per point."""
    for z in zs:
        curv = curvature_tensor(field, z)
        yield curv.tensor, curv.form.gram


def _block_rows(field, zs, gate):
    """The leading points that ``gate`` passes, as their count n, and
    their (tensor, Gram) rows.  G is read at all points in one
    :meth:`ChartField.gram_stack` call and gated in point order; the n
    points before the first rejected one go through one
    :func:`charts.solve_points` and one :func:`charts.assemble_rows`, and
    no later point is solved.  Should either raise, the n points are read
    again by :func:`_point_rows`, so that the error is the one the first
    failing point raises when the points are read one at a time."""
    grams = field.gram_stack(zs)
    n = 0
    while n < len(zs) and gate(grams[n]):
        n += 1
    if not n:
        return 0, ()
    zs = zs[:n]
    try:
        solves = solve_points(field, zs)
        tensors = assemble_rows(field, zs, solves)
    except HermitiaError:
        return n, _point_rows(field, zs)
    return n, zip(tensors, solves.forms.gram)


def _scan(field, region, n_points, directions_per_point, seed_key, steps, signs, gate=None):
    """The seeded sample-then-refine pass of every HSC scan.

    Point idx is drawn from SeedSequence(seed_key + [idx]), then its
    ``directions_per_point`` unit directions from the same stream
    (:func:`_draw`).  Each point's curvature tensor and Gram matrix are
    read once and all of its directions are scored in one stacked
    hsc_of_tensor call.  For each sign in ``signs`` (-1 for the minimum,
    +1 for the maximum) the incumbent is the first strictly lower
    (higher) H in (point, direction) order; its direction is then refined
    on its point's curvature tensor by :func:`_refine_direction` for at
    most ``steps`` steps.  Returns one (H, point, direction) per sign.

    Without a gate each point is read by its own curvature_tensor call
    (:func:`_point_rows`).  With ``gate``, a test of the Gram matrix at a
    point, the points are read as one block (:func:`_block_rows`): the
    gate sees G at each point in order, the points before the first one
    it rejects are solved and assembled together and scored, and the scan
    then returns None.  Results, None and errors are those of gating and
    reading the points one at a time.
    """
    zs, dirs = _draw(field.m, region, n_points, directions_per_point, seed_key)
    if gate is None:
        # hsc_extremes keeps one curvature_tensor call per point: the
        # gr-scan benchmark clocks a point as the wall time of that call,
        # so the block read waits for a benchmark that clocks it another way.
        n, rows = n_points, _point_rows(field, zs)
    else:
        n, rows = _block_rows(field, zs, gate)
    incumbents = [None] * len(signs)
    for z, d, (tensor, g) in zip(zs, dirs, rows):
        h = hsc_of_tensor(tensor, g, d)
        for k, sign in enumerate(signs):
            i = np.argmax(sign * h)
            if incumbents[k] is None or sign * h[i] > sign * incumbents[k][0]:
                incumbents[k] = (h[i], z, d[i], tensor, g)
    if n < n_points:
        return None
    extremes = []
    for sign, (_, z, v, tensor, g) in zip(signs, incumbents):
        v, h = _refine_direction(tensor, g, v, steps, sign)
        extremes.append((float(h), z, v))
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
    accepted only as None (see :func:`single_threaded`).
    """
    single_threaded(threads)
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
