"""Pointwise differential geometry on a polydisc chart.

A :class:`ChartField` is a smooth Hermitian-matrix-valued function of a
point z in C^m, given by one Gram kernel that evaluates a stack of
points.  Its first and mixed second derivatives are either both supplied
analytically or both taken by the one central Wirtinger stencil

    d_a    = (F(z+h) - F(z-h) - i F(z+ih) + i F(z-ih)) / (4h)
    dbar_a = (F(z+h) - F(z-h) + i F(z+ih) - i F(z-ih)) / (4h)

whose 4m points for all coordinates come from :func:`_stencil_ring` and
whose reads :func:`_combine_ring` combines.  :func:`ring_fd` is that pair
for any array-valued function: it reads the function once at each ring
point and returns the difference along every coordinate; a finite
difference of a Jacobian, an inclusion or a supplied connection goes
through it.  A chart field reads all the points of one difference of its
Gram matrix, or of one constant-rank gate, in one
:meth:`ChartField.gram_stack` call.  Its analytic derivatives are kernels
of a stack of points too, so a read at one point is a one-row stack and
the construction self-check reads each order in one call.

A connection solve has one path, :func:`_solve_read`: the minimum-norm
solve G @ A_a = d_a G of a stack of rows, as arrays, from the gate reads
the caller made, which requires the rank of G to be constant across each
row's gate stencil (a rank change is a first-class error, not a
warning).  It ranks all the gates in one pass, factorizes the forms in
one batched ``eigh``, reads dG once and solves in batched products, and
it is the one home of the gate verdict, the form guard, the dG
finiteness check and the residual.  A form read before the solve comes
as its :class:`~hermitia.forms.FormStack`, whose factorization the solve
reuses.  The curvature assembly has one path too,
:func:`_assemble_read`: the tensors of a stack of solved rows, from the
reads of the mixed second derivatives the caller made, in one stacked
product.  Their readers are :func:`solve_rows` and
:func:`assemble_rows`, one field at a stack of points, and
:class:`~hermitia.sequences.SumAt`, the rows b1, b2 and b1 + b2 of two
summand fields at one point.

One record holds a field at points: :class:`FieldRows`, one field at a
stack of points, z first, with its forms, its solve (the one call of
:func:`solve_rows`, on the gate rows it reads by :func:`_gate_reads` or
is given) and z's curvature tensor, each computed on first read.  A
:class:`FieldAt` is the one-row record of one point, which
:func:`chern_connection` and :func:`curvature_tensor` return with its
solve or its tensor already run; :func:`solve_points` raises the error
of the first failing point of a stack, and
:func:`gauge_independence_residual` and :func:`curvature_20_defect`
solve a point and its 4m probe points by it; the gated scan of
:mod:`hermitia.models` reads the record of its block, and a sequence
record of :mod:`hermitia.sequences` holds one per field, over the gate
rows and the forms of its own read.

One stop rule for stacked steps: a step over a stack of points raises
at a point that fails and otherwise returns its whole stack, and
:func:`_leading` alone decides where a stack is cut.  It runs the step
on the whole stack; only when that raises does it bisect the length of
the leading part to find the first failing point, and it keeps the
value of the points before it and that point's error, the error a loop
over the points one at a time raises first.  This holds because each
row of a step is a function of its own point (the row contract), so a
leading part fails exactly when it holds a failing point.  A caller
raises the error it keeps only where it reads a point that failed.

Curvature is stored as a 4-index tensor R[a][b][s][t] = R(d_a, dbar_b,
e_s, conj(e_t)).  The sign and normalization are pinned by a calibration
invariant: the standard projective-line metric has holomorphic sectional
curvature identically 2.  :func:`hsc_of_tensor` scores directions on that
tensor read as an (m^2, m^2) matrix, one row product per direction.
"""

from collections import namedtuple
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    HermitiaError,
    NotHolomorphic,
    NotPositive,
    NotPositiveAtPoint,
    OutOfDomain,
    RankJump,
    SolverResidual,
    ZeroVector,
)
from .forms import (
    FormStack,
    Subspace,
    _non_finite,
    conj_transpose,
    gram_rank,
    gram_ranks,
    hermitize,
    rank_of,
    require_finite_rows,
)

# Relative rank cutoff of every chart Gram matrix (see forms.rank_of).
RANK_TOL = 1e-8
# Largest relative residual of the connection solve G A = dG.
SOLVER_TOL = 1e-7
# Step of the Wirtinger probes that difference a connection, a Jacobian or
# per-point sequence data (curvature_from_connection, curvature_20_defect,
# pullback_consistency, the identity table and the splitting blocks).
PROBE_STEP = 1e-4
# Step of the finite-difference Jacobian of a HolomorphicMap.
MAP_FD_STEP = 1e-5
# Largest antiholomorphic derivative of a holomorphic map or inclusion,
# relative to 1 + the norm of its value (or Jacobian).
HOLOMORPHY_TOL = 1e-8
# Largest disagreement of the two torsion routes of torsion_defect,
# relative to 1 + the defect.
TORSION_CROSS_TOL = 1e-5
# Largest relative disagreement of analytic first (mixed second)
# derivatives with the stencil in a field's construction self-check.
SELF_CHECK_D_TOL = 1e-6
SELF_CHECK_DD_TOL = 1e-5


def _as_point(z, m):
    z = np.asarray(z, dtype=complex)
    if z.shape != (m,):
        z = np.atleast_1d(z)  # a number is a point of a one-dimensional chart
        if z.shape != (m,):
            raise ValueError("point has dimension %s, chart has %d" % (z.shape, m))
    return z


def sample_box(rng, m, scale):
    """A point of the box |Re z_a|, |Im z_a| <= scale drawn from ``rng``:
    the m real parts, then the m imaginary parts, uniform in [-1, 1] and
    multiplied by ``scale``."""
    return scale * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))


def _stencil_ring(z, step):
    """The 4m points z + step e_a, z - step e_a, z + i step e_a and
    z - i step e_a of the Wirtinger stencil, for every coordinate a in
    turn, shape (4m, m); for a (..., m) stack of centres, the rings of all
    of them, shape (..., 4m, m)."""
    return z[..., None, :] + _ring_offsets(z.shape[-1], step)


@lru_cache(maxsize=64)
def _ring_offsets(m, step):
    """The (4m, m) offsets of :func:`_stencil_ring`, built once per chart
    dimension and step: a probe ring is differenced many times per point."""
    e = np.eye(m, dtype=complex)
    se, ise = step * e, 1j * step * e
    return np.stack([se, -se, ise, -ise], axis=1).reshape(4 * m, m)


def _combine_ring(reads, step, conjugate=False, axis=0):
    """d_a (or dbar_a when ``conjugate``) for every coordinate a from the
    reads at the points of :func:`_stencil_ring`, stacked on axis
    ``axis``, which becomes the coordinate axis: shape (..., 4m, ...) ->
    (..., m, ...).  Leading axes may hold the rings of a stack of points."""
    lead = (slice(None),) * (axis % reads.ndim)
    fp, fm, fip, fim = (reads[lead + (slice(k, None, 4),)] for k in range(4))
    h = step
    if conjugate:
        return (fp - fm + 1j * fip - 1j * fim) / (4.0 * h)
    return (fp - fm - 1j * fip + 1j * fim) / (4.0 * h)


def ring_fd(fn, z, step, conjugate=False):
    """d_a (or dbar_a when ``conjugate``) of an array-valued ``fn`` for
    every coordinate a, shape (m, ...): ``fn`` read once at each of the
    4m points of :func:`_stencil_ring`, in ring order, the reads combined
    by :func:`_combine_ring`."""
    reads = np.stack([np.asarray(fn(w), dtype=complex) for w in _stencil_ring(z, step)])
    return _combine_ring(reads, step, conjugate)


class ChartField:
    """Hermitian Gram-matrix field on a polydisc chart.

    Every read is Hermitian-averaged; rank decisions use the relative
    cutoff ``RANK_TOL`` and connection solves must meet ``SOLVER_TOL``.

    The Gram matrices come from one kernel, ``stack_fn``, which evaluates
    a whole stack of points; a read at one point is the kernel on a
    one-row stack, so :meth:`gram_stack` rows equal :meth:`gram` reads bit
    for bit as long as the kernel keeps its row contract.  A field has
    both analytic derivatives or neither: with neither, every derivative
    is a finite difference of the kernel's reads.  Analytic derivatives
    are kernels of a stack of points under the same contract, and
    :meth:`d` and :meth:`dd` are their one-row reads.

    Parameters
    ----------
    m : complex dimension of the chart.
    shape : size of the square Gram matrix.
    stack_fn : the kernel, (B, m) points -> (B, shape, shape) Gram
        matrices, where row i depends on point i only.  It should return
        the Gram matrices only and compute no derivatives.
    center, radius : polydisc domain; radius may be per-coordinate.
    d_fn, dd_fn : analytic derivative kernels, as ``stack_fn`` a function
        of a (B, m) stack of points whose row i depends on point i only:
        first derivatives, shape (B, m, shape, shape) with d_fn(zs)[i][a]
        = d_a G at zs[i], and mixed second derivatives, shape (B, m, m,
        shape, shape) with dd_fn(zs)[i][a][b] = d_a dbar_b G at zs[i];
        both or neither, else HermitiaError.
    fd_step, fd_outer_step : steps of the inner (first derivative) and
        outer (second derivative) Wirtinger differences.
    self_check : compare analytic derivatives against finite differences
        at a few deterministic points on construction, each order in a
        fixed number of calls: d_fn at 10 points in one call against their
        stencils read in one :meth:`gram_stack` call, then dd_fn at 3 more
        in one call against the outer difference of one d_fn call at their
        3 * 4m outer stencil points.

    On a field with analytic derivatives, :func:`curvature_tensor` and
    :func:`chern_connection` read the Gram matrix at the 4m + 1 points of
    the constant-rank gate in one :meth:`gram_stack` call, and the solve
    takes its form from the centre read; a finite-difference derivative
    reads its stencil in one call too.
    """

    def __init__(
        self,
        m,
        shape,
        stack_fn,
        center=None,
        radius=1.0,
        d_fn=None,
        dd_fn=None,
        fd_step=1e-4,
        fd_outer_step=1e-3,
        name="",
        self_check=True,
    ):
        if (d_fn is None) != (dd_fn is None):
            raise HermitiaError("a chart field takes both d_fn and dd_fn or neither")
        self.m = int(m)
        self.shape = int(shape)
        self.stack_fn = stack_fn
        self.center = (
            np.zeros(self.m, dtype=complex)
            if center is None
            else _as_point(center, self.m)
        )
        self.radius = np.broadcast_to(np.asarray(radius, dtype=float), (self.m,)).copy()
        self.d_fn = d_fn
        self.dd_fn = dd_fn
        self.fd_step = float(fd_step)
        self.fd_outer_step = float(fd_outer_step)
        self.name = name
        if self_check and self.analytic:
            self._self_check()

    # -- evaluation ---------------------------------------------------------

    @staticmethod
    def _checked(g, shape):
        g = np.asarray(g, dtype=complex)
        if g.shape != shape:
            raise HermitiaError("field evaluator returned shape %s" % (g.shape,))
        return g

    def _as_stack(self, zs):
        zs = np.asarray(zs, dtype=complex)
        if zs.ndim != 2 or zs.shape[1] != self.m:
            raise ValueError("point stack has shape %s, chart has dimension %d" % (zs.shape, self.m))
        return zs

    def gram(self, z):
        """The Gram matrix at z: the one-row read of :meth:`gram_stack`."""
        return self.gram_stack(_as_point(z, self.m)[None])[0]

    def gram_stack(self, zs):
        """The Gram matrices at a (B, m) stack of points, shape (B, shape,
        shape), in C order whatever order the kernel returns (a product
        with a row can round differently in another order)."""
        zs = self._as_stack(zs)
        r = self.shape
        return np.ascontiguousarray(hermitize(self._checked(self.stack_fn(zs), (len(zs), r, r))))

    def form_at(self, z):
        """The form of G(z), read first by the record of z
        (:class:`FieldAt`); a NaN or inf in G(z) raises NonFinite naming z."""
        return FieldAt(self, z).form

    def in_domain(self, z, margin=0.0):
        """Whether the point z keeps ``margin`` from the chart's boundary;
        for a stack of points, whether each of them does."""
        return (np.abs(z - self.center) <= self.radius - margin).all(axis=-1)

    def _require_domain(self, z, margin):
        """Raise the OutOfDomain (:func:`_outside`) of the first point of
        ``z``, one point or a stack of them, that lies within ``margin`` of
        the chart's boundary or outside it; a stack is checked by one
        comparison."""
        inside = self.in_domain(z, margin)
        if not inside.all():
            raise _outside(z.reshape(-1, self.m)[np.argmin(inside.reshape(-1))], margin)

    def rank_at(self, z):
        return gram_rank(self.gram(z), RANK_TOL, "Gram matrix of the rank gate", z)

    # -- derivatives --------------------------------------------------------

    @property
    def analytic(self):
        return self.d_fn is not None

    def _fd(self, z, conjugate):
        """All first derivatives by the stencil at a point, shape (m,
        shape, shape), or at each point of a (..., m) stack, shape (..., m,
        shape, shape): the domain of every point checked first, then the
        4m points of every stencil read in one :meth:`gram_stack` call.  A
        stack's rows equal the point reads bit for bit."""
        self._require_domain(z, self.fd_step)
        ring = _stencil_ring(z, self.fd_step)
        reads = self.gram_stack(ring.reshape(-1, self.m))
        reads = reads.reshape(ring.shape[:-1] + reads.shape[-2:])
        return _combine_ring(reads, self.fd_step, conjugate, axis=-3)

    def d_stack(self, zs):
        """All holomorphic first derivatives at a (B, m) stack of points,
        shape (B, m, shape, shape): one d_fn call, or the stencils of all
        points in one read; row i equals ``d(zs[i])`` bit for bit."""
        zs = self._as_stack(zs)
        if self.d_fn is not None:
            return np.asarray(self.d_fn(zs), dtype=complex)
        return self._fd(zs, False)

    def d(self, z):
        """All holomorphic first derivatives, shape (m, shape, shape): the
        one-row read of :meth:`d_stack`."""
        return self.d_stack(_as_point(z, self.m)[None])[0]

    def dbar(self, z):
        """All antiholomorphic first derivatives, shape (m, shape, shape):
        on an analytic field dbar_a G = (d_a G)^H, as reads are
        hermitized."""
        if self.d_fn is not None:
            return conj_transpose(self.d(z))
        return self._fd(_as_point(z, self.m), True)

    def _dd_ring(self, zs):
        """d_a dbar_b G at a (B, m) stack of points by an outer difference
        of dbar_b G at the 4m outer stencil points of each.  On an analytic
        field dbar_b G = (d_b G)^H at all B 4m of them is one
        :meth:`d_stack` read, the self-check's oracle of dd_fn; else it is
        the conjugate stencil around each, all B 16 m^2 points read in one
        :meth:`gram_stack` call."""
        outer = _stencil_ring(zs, self.fd_outer_step)
        if self.analytic:
            dbar = conj_transpose(self.d_stack(outer.reshape(-1, self.m)))
            dbar = dbar.reshape(outer.shape[:-1] + dbar.shape[-3:])
        else:
            dbar = self._fd(outer, True)
        # dbar[i, 4a + k, b] is dbar_b G at outer point k along z_a of point i
        return _combine_ring(dbar, self.fd_outer_step, axis=-4)

    def dd_stack(self, zs):
        """Mixed second derivatives d_a dbar_b G at a (B, m) stack of
        points, shape (B, m, m, shape, shape): one dd_fn call, or the
        nested stencils of all points in one read; row i equals
        ``dd(zs[i])`` bit for bit."""
        zs = self._as_stack(zs)
        if self.dd_fn is not None:
            return np.asarray(self.dd_fn(zs), dtype=complex)
        self._require_domain(zs, self.fd_outer_step + self.fd_step)
        return self._dd_ring(zs)

    def dd(self, z):
        """Mixed second derivatives d_a dbar_b G, shape (m, m, shape,
        shape): the one-row read of :meth:`dd_stack`."""
        return self.dd_stack(_as_point(z, self.m)[None])[0]

    def finite_difference_copy(self):
        """The same field with analytic evaluators dropped."""
        return ChartField(
            self.m,
            self.shape,
            self.stack_fn,
            center=self.center,
            radius=self.radius,
            fd_step=self.fd_step,
            fd_outer_step=self.fd_outer_step,
            name=self.name,
            self_check=False,
        )

    def _self_check(self):
        """Compare d_fn with the stencil at 10 points and dd_fn with
        :meth:`_dd_ring` at 3 more, drawn in that order from a generator
        seeded by the chart's size, each draw one ``uniform`` call of the
        real then the imaginary parts of every point in turn (the stream
        of :func:`sample_box` point by point).  Each order reads its
        analytic and its finite-difference side in one call each, and the
        first order is checked before the second is computed.  A
        disagreement, or a NaN on either side, names the order and the
        point of the worst one (of the first NaN)."""
        rng = np.random.default_rng(np.random.SeedSequence([7, self.m, self.shape]))

        def draw(points, spread):
            x = rng.uniform(-1, 1, (points, 2, self.m))
            return self.center + spread * self.radius * (x[:, 0] + 1j * x[:, 1]) / np.sqrt(2.0)

        def require_agreement(order, zs, exact, fd, tol):
            err = np.linalg.norm(exact - fd, axis=(-2, -1))
            rel = (err / (1.0 + np.linalg.norm(fd, axis=(-2, -1)))).reshape(len(zs), -1).max(axis=1)
            i = int(np.argmax(rel))  # the first NaN, if any
            if not rel[i] <= tol:
                raise HermitiaError(
                    "analytic %s derivatives disagree with finite differences "
                    "(relative error %.2e) at %s" % (order, rel[i], _named(zs[i]))
                )

        zs = draw(10, 0.5)
        fd = self._fd(zs, False)
        require_agreement("first", zs, self.d_stack(zs), fd, SELF_CHECK_D_TOL)
        zs = draw(3, 0.4)
        fd = self._dd_ring(zs)
        require_agreement("second", zs, self.dd_stack(zs), fd, SELF_CHECK_DD_TOL)

    def __repr__(self):
        mode = "analytic" if self.analytic else "fd"
        label = " %r" % self.name if self.name else ""
        return "ChartField(m=%d, shape=%d, %s%s)" % (self.m, self.shape, mode, label)


def last_point_cache(fn):
    """``fn`` of a chart point or a (B, m) stack of points, recomputed
    only when its argument changes, so the d and dd reads of one field at
    the same rows share one jet.  The key (the argument's bytes, which on
    one chart fix its rows) and the value are kept as one tuple: a reader
    never pairs a new key with an old value.  ``fn`` reads a copy of its
    argument, so a kept value that holds a view of it cannot change when a
    caller later writes into its own array."""
    last = None

    def cached(z):
        nonlocal last
        key = z.tobytes()
        hit = last
        if hit is None or hit[0] != key:
            hit = last = (key, fn(z.copy()))
        return hit[1]

    return cached


def _row_norms(x):
    """The norm of each row x[i] of a complex (B, ...) stack, shape (B,):
    sqrt(re . re + im . im) as batched (1, n) @ (n, 1) products on the
    strided real and imaginary views, which is how ``np.linalg.norm``
    takes it, so entry i equals ``np.linalg.norm(x[i])`` bit for bit when
    x[i] is C-contiguous."""
    x = x.reshape(len(x), 1, -1)
    re, im = x.real, x.imag
    return np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0]


def _gate_stencil(z, s):
    """z, then z + s e_a, z - s e_a, z + i s e_a and z - i s e_a for each
    coordinate a: the 4m + 1 points of the constant-rank gate, shape
    (4m + 1, m); for a (B, m) stack of points, the stencils of all of
    them, shape (B, 4m + 1, m)."""
    return np.concatenate([z[..., None, :], _stencil_ring(z, s)], axis=-2)


def _named(z):
    """A chart point as a RankJump names it: each coordinate to 1e-6,
    which tells apart the gate neighbors of every point of one probe
    ring.  Formatted by Python, not ``np.array2string`` (25 times slower),
    since callers such as ``fibration.r_lambda_decomposed`` raise and
    catch the jump as a matter of course."""
    return "[%s]" % " ".join("%.6f%+.6fj" % (w.real, w.imag) for w in z.tolist())


def _gate_error(zs, ranks, i):
    """The error of a gate that fails at point i of its stencil ``zs``
    (centre first), from the ranks there of :func:`gram_ranks`: NonFinite
    naming point i when it was read as non-finite (the error
    :func:`gram_rank` raises there), else RankJump naming the centre and
    point i, whose rank differs from the centre's."""
    if ranks[i] < 0:
        return _non_finite("Gram matrix of the rank gate", zs[i])
    return RankJump(
        "rank %d at %s but %d at its stencil neighbor %s"
        % (ranks[0], _named(zs[0]), ranks[i], _named(zs[i]))
    )


class _Rows(namedtuple("_Rows", "value n error")):
    """The result of :func:`_leading`: ``value`` at the leading n points
    of its stack, those before the first point that fails, with the
    points on the leading axis, and the error of that point, or None when
    all pass.  A kept error is never raised itself: it is detached
    (:func:`_detached`) where :func:`_leading` catches it."""

    __slots__ = ()

    def rows(self):
        """The value, raising the error when no point passes."""
        if not self.n:
            self.raise_error()
        return self.value

    def raise_error(self):
        """Raise a copy of the error, so that the kept one never holds a
        traceback, whose frames would hold its keeper in a cycle."""
        raise type(self.error)(*self.error.args)


def _detached(error):
    """``error`` without its traceback and the errors chained to it,
    whose frames would hold the record that keeps it in a cycle."""
    error.__cause__ = error.__context__ = None
    return error.with_traceback(None)


def _leading(fn, zs):
    """``fn`` of the longest leading part of the stack zs where it
    passes, as :class:`_Rows` whose error is that of the first point that
    fails.  ``fn`` takes a stack of points, each row of its result a
    function of its own point alone, and raises HermitiaError when a point
    fails, so a leading part fails exactly when it holds a failing point.
    ``fn`` runs on the whole stack; only when that raises is the length of
    the leading part bisected, so fn runs at most ceil(log2 B) + 1 times
    on B points.  The error kept is that of the shortest failing part,
    whose last point alone fails."""
    try:
        return _Rows(fn(zs), len(zs), None)
    except HermitiaError as err:
        error = _detached(err)
    value, passing, failing = None, 0, len(zs)
    while failing - passing > 1:
        mid = (passing + failing) // 2
        try:
            value, passing = fn(zs[:mid]), mid
        except HermitiaError as err:
            error, failing = _detached(err), mid
    return _Rows(value, passing, error)


def _outside(w, margin):
    """The OutOfDomain of a point w within ``margin`` of the chart's
    boundary or outside it."""
    return OutOfDomain(
        "point %s (with stencil margin %g) leaves the chart polydisc"
        % (np.array2string(w, precision=3), margin)
    )


def _gate_reads(field: ChartField, zs):
    """G at the gate stencils (:func:`_gate_stencil`) of a (B, m) stack
    of points, shape (B, 4m + 1, r, r), read in one
    :meth:`ChartField.gram_stack` call, and those stencils, shape (B,
    4m + 1, m).  The OutOfDomain of the first point that is not inside
    the chart with the gate's margin to spare raises first, from one
    comparison for the whole stack, before any read."""
    field._require_domain(zs, field.fd_outer_step + field.fd_step)
    stencils = _gate_stencil(zs, field.fd_outer_step)
    g = field.gram_stack(stencils.reshape(-1, field.m))
    return g.reshape(stencils.shape[:2] + g.shape[1:]), stencils


_FORM_GUARD = "the form read at this point is not the gate's G(z)"


def _solver_residual(residual):
    return SolverResidual(
        "G A = dG has no solution to %.1e (residual %.2e); "
        "the field is not admissible here" % (SOLVER_TOL, residual)
    )


class FieldRows:
    """One field at a (B, m) stack of points ``zs``, z = zs[0] first: its
    forms, its gated connection solve and z's curvature tensor, each
    computed on first read, each raising what its step raises.

    ``reads``, a function of no argument, returns G at the gate stencils
    of the leading points to solve (by default all of them, read by
    :func:`_gate_reads`, which raises the OutOfDomain of the first point
    outside the chart).  ``solves`` is the :class:`RowSolves` of one
    :func:`solve_rows` of those rows.

    ``forms``, a function of no argument, returns the
    :class:`~hermitia.forms.FormStack` at zs (by default one read of G at
    zs apart from the gates, with no domain check, which raises NonFinite
    naming the first point where G is not finite).  Read before the
    solve, they are the solve's, and each must then equal its gate's
    centre row bit for bit, else HermitiaError: the guard of the kernel's
    row contract.  Read after a solve of every point, the forms are the
    solve's, the gates' centre rows; else they are read by ``forms``.

    z's readers are ``form``, ``dg``, ``a``, ``residual`` and ``tensor``,
    the one-row :func:`assemble_rows` at z.
    """

    def __init__(self, field: ChartField, zs, reads=None, forms=None):
        self.field, self.zs = field, zs
        self._reads, self._read_forms = reads, forms

    @cached_property
    def forms(self):
        solves = self.__dict__.get("solves")
        if solves is not None and len(solves.a) == len(self.zs):
            return solves.forms
        if self._read_forms is not None:
            return self._read_forms()
        return FormStack(self.field.gram_stack(self.zs), self.zs, RANK_TOL)

    @cached_property
    def solves(self):
        grams = _gate_reads(self.field, self.zs)[0] if self._reads is None else self._reads()
        return solve_rows(self.field, self.zs[: len(grams)], grams, self.__dict__.get("forms"))

    @cached_property
    def form(self):
        """The :class:`~hermitia.forms.HermitianForm` of G(z), a view of
        its row of the forms."""
        return self.forms.form(0)

    @property
    def dg(self):
        """(m, shape, shape) first derivatives d_a G at z."""
        return self.solves.dg[0]

    @property
    def a(self):
        """(m, shape, shape) minimum-norm connection at z; for
        nondegenerate G the usual G^-1 dG, in general unique only modulo
        matrices with columns in Ker G."""
        return self.solves.a[0]

    @property
    def residual(self):
        return self.solves.residual[0]

    @cached_property
    def tensor(self):
        """(m, m, shape, shape) contracted curvature R[a][b][s][t] at z."""
        return assemble_rows(self.field, self.zs[:1], self.solves)[0]


class FieldAt(FieldRows):
    """One field at one point z (``point``): the one-row
    :class:`FieldRows`.  Its form read first is a one-row read of G(z),
    which the solve takes under the guard, and so is a form read after a
    solve that failed.  ``kernel_basis`` (a :class:`Subspace`) is built
    only when read.
    """

    def __init__(self, field: ChartField, z):
        self.point = _as_point(z, field.m)
        super().__init__(field, self.point[None])

    @cached_property
    def kernel_basis(self):
        return Subspace(self.field.shape, self.form.kernel_basis, rank_tol=RANK_TOL)

    def pair_symmetry_residual(self):
        r = self.tensor
        sym = r - np.conj(np.transpose(r, (1, 0, 3, 2)))
        return float(np.linalg.norm(sym) / (1.0 + np.linalg.norm(r)))


def chern_connection(field: ChartField, z) -> FieldAt:
    """The record of ``field`` at z with its connection solve run, so a
    RankJump or SolverResidual raises here."""
    record = FieldAt(field, z)
    record.a  # runs the solve
    return record


def curvature_tensor(field: ChartField, z) -> FieldAt:
    """The record of ``field`` at z with its curvature tensor assembled."""
    record = FieldAt(field, z)
    record.tensor  # runs the solve and the assembly
    return record


def solve_points(field: ChartField, zs):
    """The connection solves of ``field`` at a (B, m) stack of points, as
    the :class:`RowSolves` of :class:`FieldRows`, whose forms are the
    gates' centre rows.  It raises the error of the first point that
    fails (:func:`_leading`), a point's checks in the order: OutOfDomain,
    then those of :func:`solve_rows`.  No point after the first one
    outside the chart is read."""
    solved = _leading(lambda zs: FieldRows(field, zs).solves, zs)
    if solved.error is not None:
        solved.raise_error()
    return solved.value


RowSolves = namedtuple("RowSolves", "forms dg a residual")


def solve_rows(field: ChartField, zs, grams, forms=None):
    """The connection solves of ``field`` at a (B, m) stack of points zs
    inside the chart by the gate's margin, as arrays, from reads the
    caller made: ``grams``, the (B, 4m + 1, r, r) Gram matrices of their
    gates in :func:`_gate_stencil` order, and ``forms``, the
    :class:`~hermitia.forms.FormStack` whose leading B rows are the forms
    of G at zs when the caller read them apart from the gates, or None
    for the gates' centre rows.  The one-field reader of
    :func:`_solve_read`, whose dG is one :meth:`ChartField.d_stack` read
    at zs; see there for the arithmetic and the order of the checks."""
    return _solve_read(zs, grams, forms, field.fd_outer_step, field.d_stack)


def _solve_read(zs, grams, forms, step, read_dg):
    """The connection solves of a stack of rows, each the gate reads
    ``grams`` (B, 4m + 1, r, r) of a field at its point zs[i], in
    :func:`_gate_stencil` order of the gate step ``step`` (one for all
    rows, or one per row), and, when ``forms`` is not None, the forms of
    G at zs read apart from the gates (the leading B rows of a
    :class:`~hermitia.forms.FormStack`).  ``read_dg(zs)`` reads the rows'
    (B, m, r, r) first derivatives, after the gates and the guard pass.
    Rows may belong to different fields of one chart dimension and one
    Gram size.

    The gates are ranked by one batched ``eigvalsh``; forms read apart
    must equal their gate's centre row bit for bit; the forms are
    factorized by one batched ``eigh`` (a stack read apart keeps its
    own), and A = G^+ dG and its residual are batched products, each row
    the arithmetic of one row alone.

    Returns the :class:`RowSolves` (forms, dG, A and residual) of every
    row, or raises when a row fails (:func:`_leading` finds the first
    one).  A row's checks come in the order: the gate's NonFinite or
    RankJump, the form guard's HermitiaError, the read of dG, NonFinite
    of dG, SolverResidual."""
    b, m, r = len(zs), zs.shape[1], grams.shape[-1]
    ranks = gram_ranks(grams.reshape(-1, r, r), RANK_TOL).reshape(b, 4 * m + 1)
    stops = np.flatnonzero((ranks < 0) | (ranks != ranks[:, :1]))
    if stops.size:
        n, i = divmod(int(stops[0]), 4 * m + 1)
        raise _gate_error(_gate_stencil(zs[n], step[n] if np.ndim(step) else step), ranks[n], i)
    if forms is None:
        forms = FormStack(grams[:, 0], zs, RANK_TOL)
    elif not (grams[:, 0] == forms.gram[:b]).all():
        raise HermitiaError(_FORM_GUARD)
    dg = read_dg(zs)
    require_finite_rows(dg, "first derivative", zs)
    a = forms.pinv[:b, None] @ dg
    # the norms of G A_a - d_a G and of d_a G at every point, in one pass
    norms = _row_norms(np.concatenate([forms.gram[:b, None] @ a - dg, dg]).reshape(-1, r, r))
    residual = (norms[: b * m] / (1.0 + norms[b * m:])).reshape(b, m).max(axis=1)
    over = residual > SOLVER_TOL
    if over.any():
        raise _solver_residual(residual[np.argmax(over)])
    return RowSolves(forms, dg, a, residual)


def assemble_rows(field: ChartField, zs, solves):
    """The curvature tensors R[i][a][b][s][t] of ``field`` at a (B, m)
    stack of points from their solves (the :class:`RowSolves` of
    :func:`solve_rows` at zs, or at more points, whose leading B rows are
    taken), shape (B, m, m, shape, shape), C-contiguous: the one-field
    reader of :func:`_assemble_read`.  dbar G is (dG)^H on an analytic
    field, else the stencils of all points in one read; d dbar G is one
    :meth:`ChartField.dd_stack` read.
    """
    dg, gp = solves.dg[: len(zs)], solves.forms.pinv[: len(zs)]
    dbg = conj_transpose(dg) if field.analytic else field._fd(zs, True)
    return _assemble_read(zs, dg, gp, dbg, field.dd_stack(zs))


def _assemble_read(zs, dg, gp, dbg, ddg):
    """The curvature tensors of a stack of solved rows, row i at the
    point zs[i], from its first derivatives ``dg``, its pseudoinverse
    ``gp`` and the reads ``dbg`` (dbar G) and ``ddg`` (d dbar G) the
    caller made, shape (B, m, m, r, r), C-contiguous.

    M_ab = (dbar_b G) G^+ (d_a G) - d_a dbar_b G, which on admissible
    constant-rank fields equals -G dbar_b A_a for any choice of
    compatible connection; the tensor entry is R[a][b][s][t] = M_ab[t, s].
    A NaN or inf in ``ddg`` raises NonFinite naming the first point where
    it is read.  All rows and pairs are one stacked product, each row the
    arithmetic of one row, so row i equals the assembly of that row alone
    bit for bit.
    """
    require_finite_rows(ddg, "mixed second derivative", zs)
    # m_ab = (dbar_b G G^+) d_a G - d_a dbar_b G for all pairs at once;
    # in C order, hsc_of_tensor's (m^2, m^2) matrix is a view, not a copy
    mab = (dbg @ gp[:, None])[:, None] @ dg[:, :, None] - ddg
    return np.ascontiguousarray(mab.swapaxes(-1, -2))


def curvature_from_connection(field: ChartField, z, a_fn) -> np.ndarray:
    """R[a][b][s][t] = -(G dbar_b A_a)[t][s] for a supplied connection map.

    ``a_fn`` maps a chart point to the full (m, shape, shape) stack of
    connection matrices; its dbar derivative is taken by finite
    differences, so gauge comparisons run both candidates through an
    identical pipeline.
    """
    z = _as_point(z, field.m)
    g = field.gram(z)
    return _tensor_of_dbar(g, ring_fd(a_fn, z, PROBE_STEP, conjugate=True))


def _tensor_of_dbar(g, dbar):
    """R[a][b] = -(G dbar_b A_a)^T from dbar[b][a] = dbar_b A_a, all pairs
    in one stacked product, C-contiguous."""
    return np.ascontiguousarray(-(g @ dbar).transpose(1, 0, 3, 2))


def _kernel_perturbation(field: ChartField, z0, k0, seed):
    """A smooth matrix function K with columns in Ker G, the default
    perturbation of :func:`gauge_independence_residual`, as ``k(w, g,
    gp)``, where ``k0`` is an orthonormal kernel basis of G(z0) and g and
    gp are G(w) and its pseudoinverse: a caller that has solved at w
    already passes its rows and reads G nowhere.

    K(w) = (projector onto Ker G(w)) @ K0 @ Phi(w) with K0 = ``k0`` and
    Phi a fixed seeded polynomial in (w, conj(w)); the zero function for a
    nondegenerate G(z0).
    """
    jk = k0.shape[1]
    if jk == 0:
        return lambda w, g, gp: np.zeros((field.shape, field.shape), dtype=complex)
    rng = np.random.default_rng(np.random.SeedSequence([seed, field.shape, field.m]))
    c0 = rng.standard_normal((jk, field.shape)) + 1j * rng.standard_normal((jk, field.shape))
    c1 = rng.standard_normal((field.m, jk, field.shape)) + 1j * rng.standard_normal(
        (field.m, jk, field.shape)
    )
    c2 = rng.standard_normal((field.m, jk, field.shape)) + 1j * rng.standard_normal(
        (field.m, jk, field.shape)
    )

    def k(w, g, gp):
        w = _as_point(w, field.m)
        p_ker = np.eye(field.shape, dtype=complex) - gp @ g
        dw = w - z0
        phi = c0 + np.tensordot(dw, c1, axes=1) + np.tensordot(dw.conj(), c2, axes=1)
        return p_ker @ k0 @ phi

    return k


def gauge_independence_residual(field: ChartField, z, seed=0, perturbation=None):
    """Relative change of the curvature tensor under a kernel-valued
    perturbation of the connection; expected at finite-difference noise
    level (<= 1e-6).

    Both candidates, A and A + K, go through the pipeline of
    :func:`curvature_from_connection`, and both take their differences
    from one solve at each probe point.  The solves at z and at its 4m
    probe points are one :func:`solve_points`, whose forms the default K
    (:func:`_kernel_perturbation`) reads, so G is factorized once per
    point, all in one batched ``eigh``."""
    z = _as_point(z, field.m)
    zs = _gate_stencil(z, PROBE_STEP)  # z, then its probe ring
    solves = solve_points(field, zs)
    g, gp, a = solves.forms.gram, solves.forms.pinv, solves.a
    if perturbation is None:
        k = _kernel_perturbation(field, z, solves.forms.kernel_basis(0), seed)
    else:
        def k(w, g, gp):
            return perturbation(w)

    reads = np.stack([np.stack([a[i], a[i] + k(zs[i], g[i], gp[i])]) for i in range(1, len(zs))])
    dbar = _combine_ring(reads, PROBE_STEP, conjugate=True)
    r0, r1 = (_tensor_of_dbar(g[0], dbar[:, i]) for i in (0, 1))
    return float(np.linalg.norm(r0 - r1) / (1.0 + np.linalg.norm(r0)))


def hsc(field: ChartField, z, v):
    """Holomorphic sectional curvature H(v) = R(v, conj(v), v, conj(v)) / b(v, conj(v))^2.

    Only defined for metric (tangent-bundle, positive-definite) fields,
    where chart and bundle indices coincide.
    """
    if field.shape != field.m:
        raise HermitiaError("sectional curvature needs a tangent-bundle field")
    z = _as_point(z, field.m)
    v = _direction(v, field.m)
    if np.linalg.norm(v) == 0.0:
        raise ZeroVector("direction must be nonzero")
    curv = metric_curvature(field, z)
    return hsc_of_tensor(curv.tensor, curv.form.gram, v)


def metric_curvature(field: ChartField, z, what="metric"):
    """The record of :func:`curvature_tensor` of a field that must be
    positive-definite at z, checked on the solve's own G(z).

    When the solve fails, the record's form is a one-row read of G(z), so
    a form that is not positive-definite raises NotPositiveAtPoint
    whatever else is wrong.
    """
    curv = FieldAt(field, z)
    try:
        curv.tensor
    except HermitiaError:
        if curv.form.is_positive_definite():
            raise
    if not curv.form.is_positive_definite():
        raise NotPositiveAtPoint("%s is not positive-definite at this point" % what)
    return curv


def hsc_of_tensor(tensor, g, v):
    """H(v) = Re N / D^2 from a precomputed curvature tensor and Gram matrix.

    With R2 the tensor read as an (m^2, m^2) matrix (a view of a
    C-contiguous tensor), w_ab = v_a conj(v_b) and D = v^H G v, the
    numerator N = R(v, conj(v), v, conj(v)) is the product w R2 w^T.
    ``v`` is one direction, giving a float, or a stack (..., m) of
    directions, giving the array of their H.  Each direction's products
    are its own batched row, (1, m^2) @ (m^2, m^2), never a row of one
    stacked gemm, so each entry equals the single-direction call bit for
    bit.  A direction of the wrong length raises HermitiaError, a zero
    direction ZeroVector, and one along which G is not positive
    NotPositive; all are read off D, so the check costs one comparison.
    """
    m = tensor.shape[0]
    v = _direction(v, m)
    col = v.reshape(-1, m, 1)
    row = v.conj().reshape(-1, 1, m)
    w = (col * row).reshape(-1, 1, m * m)
    num = (w @ tensor.reshape(m * m, m * m)) @ w.swapaxes(-1, -2)
    den = (row @ g @ col).real
    if not (den > 0.0).all():
        _reject_directions(v.reshape(-1, m), den.ravel())
    h = (num.real / den**2).reshape(v.shape[:-1])
    return float(h) if v.ndim == 1 else h


def _direction(v, m):
    """``v`` as a complex array whose last axis is one direction in C^m."""
    v = np.asarray(v, dtype=complex)
    if v.ndim == 0 or v.shape[-1] != m:
        raise HermitiaError("a direction must have length %d, got shape %s" % (m, v.shape))
    return v


def _reject_directions(v, den):
    """Raise for the first direction whose v^H G v is not positive."""
    i = int(np.argmin(den > 0.0))
    if not np.any(v[i]):
        raise ZeroVector("direction %d of %d is zero" % (i, len(v)))
    raise NotPositive(
        "v^H G v = %.3g is not positive along direction %d of %d" % (den[i], i, len(v))
    )


def torsion_defect(field: ChartField, z):
    """max |b(tau(d_a, d_b), conj(e_c))| over a < b and c, for coordinate frames.

    The value is the antisymmetrized first derivative dG[a][c, b] -
    dG[b][c, a]; it is cross-checked against the connection route
    G(A_a e_b - A_b e_a).
    """
    return _torsion(FieldAt(field, z))


def _torsion(conn: FieldAt):
    """:func:`torsion_defect` from the record of a field at a point; the
    record's solve runs here unless it has run already."""
    field = conn.field
    if field.shape != field.m:
        raise HermitiaError("torsion needs a tangent-bundle field")
    dg, g = conn.dg, conn.form.gram
    pairs = [(a, b) for a in range(field.m) for b in range(a + 1, field.m)]
    direct = [dg[a][:, b] - dg[b][:, a] for a, b in pairs]
    via_conn = [g @ (conn.a[a][:, b] - conn.a[b][:, a]) for a, b in pairs]
    defect = max((float(np.max(np.abs(d))) for d in direct), default=0.0)
    cross = max((float(np.max(np.abs(d - v))) for d, v in zip(direct, via_conn)), default=0.0)
    if cross > TORSION_CROSS_TOL * (1.0 + defect):
        raise HermitiaError(
            "torsion routes disagree (%.2e); connection solve is suspect" % cross
        )
    return defect


def curvature_20_defect(field: ChartField, z):
    """Norm of the (2,0)-type curvature after contraction with G.

    G (d_a A_b - d_b A_a + [A_a, A_b]) vanishes identically for admissible
    fields; the returned defect is finite-difference noise.  The
    connections at z and at its 4m probe points come from one
    :func:`solve_points`.
    """
    z = _as_point(z, field.m)
    solves = solve_points(field, _gate_stencil(z, PROBE_STEP))  # z, then its probe ring
    g, a0 = solves.forms.gram[0], solves.a[0]

    # da[c][a] = d_c A_a
    da = _combine_ring(solves.a[1:], PROBE_STEP)
    defect = 0.0
    scale = 1.0 + max(np.linalg.norm(g @ da[c][a]) for c in range(field.m) for a in range(field.m))
    for a in range(field.m):
        for b in range(a + 1, field.m):
            f20 = da[a][b] - da[b][a] + a0[a] @ a0[b] - a0[b] @ a0[a]
            defect = max(defect, float(np.linalg.norm(g @ f20)))
    return defect / scale


class HolomorphicMap:
    """A holomorphic chart map f: C^m_in -> C^m_out with a Jacobian.

    The Jacobian J[i][j] = d f_i / d z_j is analytic when supplied,
    otherwise a Wirtinger finite difference of ``func`` with step
    ``MAP_FD_STEP``.
    """

    def __init__(self, func, m_in, m_out, jacobian=None):
        self.func = func
        self.m_in = int(m_in)
        self.m_out = int(m_out)
        self._jacobian = jacobian

    def __call__(self, z):
        w = np.atleast_1d(np.asarray(self.func(_as_point(z, self.m_in)), dtype=complex))
        if w.shape != (self.m_out,):
            raise HermitiaError("map returned shape %s" % (w.shape,))
        return w

    def _fd_columns(self, z, conjugate):
        return np.ascontiguousarray(ring_fd(self, z, MAP_FD_STEP, conjugate).T)

    def jacobian(self, z):
        z = _as_point(z, self.m_in)
        if self._jacobian is not None:
            j = np.asarray(self._jacobian(z), dtype=complex)
            if j.shape != (self.m_out, self.m_in):
                raise HermitiaError("jacobian returned shape %s" % (j.shape,))
            return j
        return self._fd_columns(z, False)

    def holomorphy_defect(self, z):
        return float(np.linalg.norm(self._fd_columns(_as_point(z, self.m_in), True)))


def pullback_consistency(map_obj: HolomorphicMap, field: ChartField, z):
    """Residual between the pullback of the connection and the connection
    of the pulled-back form field, measured after contracting with G.

    When the Jacobian at z is square and invertible, a second check
    compares the frame-transported metric J^H G(f) J against the gauge-
    transformed connection J^-1 (sum_i J[i][j] A_i) J + J^-1 dJ[j]; the
    returned value is the worst applicable residual.
    """
    from .fields import pullback_field

    z = _as_point(z, map_obj.m_in)
    defect = map_obj.holomorphy_defect(z)
    jac = map_obj.jacobian(z)
    if defect > HOLOMORPHY_TOL * (1.0 + np.linalg.norm(jac)):
        raise NotHolomorphic("map has antiholomorphic derivative %.2e" % defect)

    w = map_obj(z)
    amb_conn = chern_connection(field, w)
    g_at = amb_conn.form.gram
    pulled_a = np.stack(
        [
            sum(jac[i, j] * amb_conn.a[i] for i in range(map_obj.m_out))
            for j in range(map_obj.m_in)
        ]
    )

    pb = pullback_field(field, map_obj, radius=0.05, center=z)
    pb_conn = chern_connection(pb, z)
    scale = 1.0 + max(np.linalg.norm(g_at @ pulled_a[j]) for j in range(map_obj.m_in))
    residual = max(
        np.linalg.norm(g_at @ (pb_conn.a[j] - pulled_a[j])) for j in range(map_obj.m_in)
    ) / scale

    if map_obj.m_in == map_obj.m_out:
        if rank_of(np.linalg.svd(jac, compute_uv=False), RANK_TOL) == map_obj.m_in:
            def transported(us):
                ju = np.stack([map_obj.jacobian(u) for u in us])
                g = field.gram_stack(np.stack([map_obj(u) for u in us]))
                return conj_transpose(ju) @ g @ ju

            tfield = ChartField(
                map_obj.m_in,
                map_obj.m_out,
                transported,
                center=z,
                radius=0.05,
                self_check=False,
            )
            t_conn = chern_connection(tfield, z)
            jinv = np.linalg.inv(jac)
            djac = ring_fd(map_obj.jacobian, z, PROBE_STEP)
            g_t = t_conn.form.gram
            scale_t = 1.0 + np.linalg.norm(g_t) * (1.0 + np.linalg.norm(t_conn.a))
            for j in range(map_obj.m_in):
                target = jinv @ pulled_a[j] @ jac + jinv @ djac[j]
                residual = max(
                    residual,
                    np.linalg.norm(g_t @ (t_conn.a[j] - target)) / scale_t,
                )
    return float(residual)
