"""Subbundle / quotient curvature calculus over a chart.

An :class:`ExactSeqChart` packages an ambient Gram field with a
holomorphic full-column-rank inclusion j(z) and derives everything the
splitting theory needs: a holomorphic quotient frame q(z), the induced
sub and quotient form fields, pointwise adjoints, and the second
fundamental form.  The identities implemented here are only claimed
modulo form kernels, so every residual is measured after contracting
with the Gram matrix of the relevant bundle.

Frame choices: S is framed by the columns of j; Q is framed by
holomorphic continuation of an orthonormal complement N0 of the column
space at the chart center,

    q(z) = N0^H (I - j(z) (w0 j(z))^-1 w0),        w0 = pinv(j(z0)),

which satisfies q j = 0, q(z0) = N0^H, and dbar q = 0 by construction.

Quotient metric: when the ambient Gram matrix G is positive-definite the
quotient form is the dual of the sub form of the dual sequence,

    G_Q = (q H q^H)^-1,        H = G^-1,

and its first and mixed second derivatives follow in closed form from
d(M^-1) = -M^-1 dM M^-1 (q is holomorphic, so no second derivative of q
appears).  The closed-form jet is used when the ambient field has
analytic first and mixed second derivatives, the inclusion has analytic
derivatives and G is positive-definite at the chart center; any other
ambient (degenerate, derivatives by finite differences) reads G_Q from
:func:`~hermitia.forms.quotient_form` at each point and differentiates
those reads by finite differences.

Gram kernels: the sub field's Gram matrices j^H G j and the quotient
Gram matrices are functions of the ambient's Gram matrices and the
inclusion at a stack of points (:meth:`ExactSeqChart._grams`: batched
Cholesky factorizations and inverses for the closed-form quotient,
quotient_form of each row's form otherwise), so each field's kernel reads
the ambient once per stack, and a caller that has read the ambient and
the inclusion applies the same function to its rows.  The sub and
quotient fields take the ambient's chart and finite-difference steps, so
their gates read the ambient at the ambient's gate points.

Per-point data: one record, :class:`_SeqRows`, holds the sequence data
at a point z and its probe ring, the 4m + 1 points of the gate stencil
of step ``PROBE_STEP`` (z first), as arrays, each quantity computed on
first read.  :meth:`ExactSeqChart.at` is the record of z, kept for the
latest point.  The finite differences of j dagger, q dagger, sigma and
sigma dagger in the identity table and the splitting blocks, the
independent side of each identity, combine rows 1 to 4m
(:meth:`_SeqRows.probe`); every other reader takes z's row.  A record
makes one read: the ambient's Gram kernel at the 4m + 1 gate points of
each of its points in one call and, when the sub or quotient is needed,
the inclusion there in one call.  Its ambient, sub and quotient are each
a :class:`~hermitia.charts.FieldRows` over the record's points, the one
field record of :mod:`hermitia.charts`, given the centre rows of that
read as forms and their rows of it as gate rows: the ambient and the
sub solve all the record's points, the quotient z alone, as the probes
need its forms, never its connection, and each curvature tensor is z's.
So one point of the identity table, the splitting, sigma and the
Codazzi pairs calls the ambient kernel 4 times, whatever m: at the gate
points, at the 4m + 1 points for the sub's dG, and once each for the
sub's and the quotient's jets at z (the d and dd reads of each jet
sharing its first-order part).  Errors stay with their point: each
quantity of a record raises when one of its points fails, and its
readers are views onto the longest leading prefix record where it
passes, which the stop rule of :mod:`hermitia.charts` finds, so a reader
of z's row raises only z's error, and a probe the first failing point's
(see :class:`_SeqRows`).  Each identity line, the splitting's
reassembly residual and the (0,1)-part of sigma reduce by
:func:`~hermitia.report.worst_of`, so a NaN among them is kept.
The finite-difference dj of an inclusion given without dj, and the
holomorphy checks of j, read j at the stencils of a whole stack of
points in one call (:meth:`ExactSeqChart._j_fd`).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .charts import (
    HOLOMORPHY_TOL,
    PROBE_STEP,
    RANK_TOL,
    ChartField,
    FieldAt,
    FieldRows,
    _as_point,
    _combine_ring,
    _gate_reads,
    _gate_stencil,
    _leading,
    _named,
    _stencil_ring,
    curvature_tensor,
    last_point_cache,
    sample_box,
)
from .errors import HermitiaError, NotHolomorphic, NotPositiveAtPoint
from .fields import sum_field
from .forms import (
    FormStack,
    LinearMap,
    adjoint_stack,
    conj_transpose,
    hermitize,
    quotient_form,
    rank_of,
    require_finite_rows,
    stacked_linalg,
    sum_quotient_form,
)
from .report import worst_of

SIGMA_DBAR_TOL = 1e-6


class ExactSeqChart:
    """Ambient field with a holomorphic subbundle inclusion.

    Parameters
    ----------
    ambient_field : the Gram field of the ambient bundle (rank r fiber).
    j : constant (r, k) matrix, or a kernel of a stack of points under the
        row contract of :class:`~hermitia.charts.ChartField`: (B, m)
        points -> (B, r, k) matrices, row i a function of point i only.
    dj : optional kernel of the holomorphic derivatives under the same
        contract, (B, m) points -> (B, m, r, k) with dj(zs)[i][a] = d_a j
        at zs[i]; finite differences of j are used when omitted for a
        callable j.

    :meth:`j_at` and :meth:`dj_at` are the one-row reads of these kernels,
    and every stack of points is read in one kernel call.
    """

    def __init__(self, ambient_field: ChartField, j, dj=None, name=""):
        self.ambient = ambient_field
        self.m = ambient_field.m
        self.r = ambient_field.shape
        self.name = name
        if callable(j):
            self._j_fn = j
            self._dj_fn = dj
        else:
            j0 = np.asarray(j, dtype=complex)
            self._j_fn = lambda zs: np.repeat(j0[None], len(zs), axis=0)
            self._dj_fn = lambda zs: np.zeros((len(zs), self.m) + j0.shape, dtype=complex)
        self.center = ambient_field.center
        j0 = self.j_at(self.center)
        if j0.ndim != 2 or j0.shape[0] != self.r:
            raise HermitiaError("inclusion has shape %s, ambient rank is %d" % (j0.shape, self.r))
        self.k = j0.shape[1]
        if self.k >= self.r:
            raise HermitiaError("inclusion must be a proper subbundle")
        u, sv, _ = np.linalg.svd(j0)
        if rank_of(sv, RANK_TOL) < self.k:
            raise HermitiaError("inclusion is not full column rank at the chart center")
        self._check_holomorphic()

        # holomorphic quotient frame by continuation from the center
        self._n0h = u[:, self.k:].conj().T  # (r-k, r), orthonormal rows
        self._w0 = np.linalg.pinv(j0)  # (k, r)

        self.sub_field = self._build_sub_field()
        self._at = last_point_cache(lambda z: _SeqRows(self, _gate_stencil(z, PROBE_STEP)))

    # -- frames ---------------------------------------------------------

    def j_at(self, z):
        return self._j_stack(_as_point(z, self.m)[None])[0]

    def dj_at(self, z):
        return self._dj_stack(_as_point(z, self.m)[None])[0]

    def _j_stack(self, zs):
        """j at each row of a (B, m) stack, shape (B, r, k): one kernel
        call, in C order whatever order the kernel returns."""
        return np.ascontiguousarray(self._j_fn(zs), dtype=complex)

    def _dj_stack(self, zs):
        """dj at each row of a (B, m) stack, shape (B, m, r, k): one call
        of the dj kernel, else :meth:`_j_fd`."""
        if self._dj_fn is not None:
            return np.ascontiguousarray(self._dj_fn(zs), dtype=complex)
        return self._j_fd(zs)

    def _j_fd(self, zs, conjugate=False):
        """d_a j (dbar_a j when ``conjugate``) at each row of a (B, m)
        stack by the Wirtinger stencil of the ambient's ``fd_step``, shape
        (B, m, r, k): the B 4m stencil points read in one kernel call, so
        row i equals ``ring_fd(j_at, zs[i], fd_step)`` bit for bit."""
        h = self.ambient.fd_step
        ring = _stencil_ring(zs, h)
        reads = self._j_stack(ring.reshape(-1, self.m))
        return _combine_ring(reads.reshape(ring.shape[:-1] + reads.shape[-2:]), h, conjugate, axis=-3)

    def _frames(self, zs, j):
        """C = (w0 j)^-1 and q = N0^H (I - j C w0) at a (B, m) stack of
        points zs from the inclusion matrices j there.  Where w0 j is
        singular the quotient frame q is not defined: HermitiaError naming
        the first such point."""
        core = stacked_linalg(np.linalg.inv, self._w0 @ j, zs, _singular_core)
        return core, self._n0h @ (np.eye(self.r) - j @ core @ self._w0)

    def _dq_of(self, j, core, dj):
        """dq at a stack of points from j, C (see :meth:`_frames`) and dj
        there, shape (B, m, r - k, r): d_a q = -N0^H (d_a j C w0 - j C (w0
        d_a j) C w0), each product associated as at one point."""
        w0, c = self._w0, core[:, None]
        inner = dj @ c @ w0 - (j @ core)[:, None] @ (w0 @ dj) @ c @ w0
        return -self._n0h @ inner

    def _check_holomorphic(self):
        """dbar j at the chart centre and two points drawn around it, read
        as one stack: NotHolomorphic at the first that is not small."""
        rng = np.random.default_rng(np.random.SeedSequence([13, self.r, self.m]))
        s = 0.3 * np.min(self.ambient.radius)
        spread = [sample_box(rng, self.m, s) for _ in range(2)]
        zs = np.stack([self.center] + [self.center + dz for dz in spread])
        for j, dbar in zip(self._j_stack(zs), self._j_fd(zs, conjugate=True)):
            for db in dbar:
                if np.linalg.norm(db) > HOLOMORPHY_TOL * (1.0 + np.linalg.norm(j)):
                    raise NotHolomorphic(
                        "inclusion has antiholomorphic derivative %.2e" % np.linalg.norm(db)
                    )

    # -- induced fields --------------------------------------------------

    def _grams(self, part, zs, g, j):
        """The Gram matrices of the sub or quotient field (``part``) at a
        stack of points zs of any leading shape, from the ambient's Gram
        matrices g and the inclusion matrices j read there: the sub kernel
        j^H G j, or :meth:`_quot_grams` of the quotient frames of j.
        Hermitian-averaged, so each row equals the field's read of its
        point bit for bit, and the fields' kernels are these of one read."""
        lead, zs = zs.shape[:-1], zs.reshape(-1, self.m)
        g, j = g.reshape((-1,) + g.shape[-2:]), j.reshape((-1,) + j.shape[-2:])
        if part == "sub":
            rows = hermitize(conj_transpose(j) @ g @ j)
        else:
            rows = self._quot_grams(zs, g, self._frames(zs, j)[1])
        return rows.reshape(lead + rows.shape[-2:])

    def _quot_grams(self, zs, g, q):
        """The quotient Gram matrices at a (B, m) stack of points from the
        ambient's Gram matrices g and the quotient frames q there: the
        closed form, else :func:`~hermitia.forms.quotient_form` of each
        row's ambient form; Hermitian-averaged."""
        if self._quot_closed_form:
            rows = self._quot_parts(zs, q, g)[2]
        else:
            forms = FormStack(g, zs, RANK_TOL)
            rows = np.stack([quotient_form(LinearMap(qw), forms.form(i)).gram for i, qw in enumerate(q)])
        return hermitize(rows)

    def _build_sub_field(self):
        """The sub field j^H G j.  Its derivative kernels read the
        ambient's G, dG (and ddG) at a stack of points in one call each:
        d_a (j^H G j) = j^H T_a with T_a = d_a G j + G d_a j, and
        d_a dbar_b (j^H G j) = (d_b j)^H T_a
        + j^H (d_a dbar_b G j + dbar_b G d_a j).  The d and dd reads of
        one stack share one first-order part (j, dj, dG and T_a), kept for
        the latest stack read (:func:`charts.last_point_cache`)."""
        amb = self.ambient

        def stack_fn(zs):
            return self._grams("sub", zs, amb.gram_stack(zs), self._j_stack(zs))

        d_fn = dd_fn = None
        if amb.analytic and self._dj_fn is not None:
            @last_point_cache
            def d_parts(zs):
                j, dj = self._j_stack(zs), self._dj_stack(zs)
                dg = amb.d_stack(zs)
                return j, dj, dg, dg @ j[:, None] + amb.gram_stack(zs)[:, None] @ dj

            def d_fn(zs):
                j, _, _, t = d_parts(zs)
                return conj_transpose(j)[:, None] @ t

            def dd_fn(zs):
                j, dj, dg, t = d_parts(zs)
                u = amb.dd_stack(zs) @ j[:, None, None] + conj_transpose(dg)[:, None] @ dj[:, :, None]
                return conj_transpose(dj)[:, None] @ t[:, :, None] + conj_transpose(j)[:, None, None] @ u

        return ChartField(
            self.m,
            self.k,
            stack_fn,
            center=amb.center,
            radius=amb.radius,
            d_fn=d_fn,
            dd_fn=dd_fn,
            fd_step=amb.fd_step,
            fd_outer_step=amb.fd_outer_step,
            name=self.name + ".sub",
            self_check=False,
        )

    @cached_property
    def _quot_closed_form(self):
        """Whether the quotient field takes the closed-form jet (see the
        module docstring)."""
        amb = self.ambient
        return (
            amb.analytic
            and self._dj_fn is not None
            and amb.form_at(self.center).is_positive_definite()
        )

    @cached_property
    def quot_field(self):
        """The quotient form field, built on first use: the closed-form jet
        when it applies, else reads of :func:`~hermitia.forms.quotient_form`
        differenced by the chart; either kernel reads the ambient once per
        stack (:meth:`_grams`)."""
        amb = self.ambient
        d_fn = dd_fn = None
        if self._quot_closed_form:
            d_fn, dd_fn = self._quot_jet()
        return ChartField(
            self.m,
            self.r - self.k,
            lambda zs: self._grams("quot", zs, amb.gram_stack(zs), self._j_stack(zs)),
            center=amb.center,
            radius=amb.radius,
            d_fn=d_fn,
            dd_fn=dd_fn,
            fd_step=amb.fd_step,
            fd_outer_step=amb.fd_outer_step,
            name=self.name + ".quot",
            self_check=False,
        )

    @staticmethod
    def _quot_parts(zs, q, g):
        """H = G^-1, K = H q^H and G_Q = (q K)^-1 at a stack of points from
        q and G there."""
        h = _pd_inverse(g, zs)
        k = h @ conj_transpose(q)
        return h, k, np.linalg.inv(q @ k)

    def _quot_jet(self):
        """The d and dd evaluators of G_Q = P^-1, P = q H q^H, H = G^-1.

        With K = H q^H, E_a = d_a q - K^H d_a G and F_a = (d_a G) K:

            d_a P         = E_a K
            d_a dbar_b P  = E_a H E_b^H + F_b^H H F_a - K^H (d_a dbar_b G) K
            d_a G_Q       = -G_Q (d_a P) G_Q
            d_a dbar_b G_Q = G_Q (d_a P G_Q dbar_b P + dbar_b P G_Q d_a P
                                 - d_a dbar_b P) G_Q

        where dbar_b P = (d_b P)^H.  Both kernels read a (B, m) stack, and
        every product keeps the association of one point's, so row i equals
        the jet of point i alone bit for bit.  The d and dd reads of one
        stack share one first-order part (H, K, G_Q, d_a G, E_a and d_a P),
        kept for the latest stack read (:func:`charts.last_point_cache`).
        """
        amb = self.ambient

        @last_point_cache
        def first_order(zs):
            j = self._j_stack(zs)
            core, q = self._frames(zs, j)
            h, k, x = self._quot_parts(zs, q, amb.gram_stack(zs))
            dg = amb.d_stack(zs)
            e = self._dq_of(j, core, self._dj_stack(zs)) - conj_transpose(k)[:, None] @ dg
            return h, k, x, dg, e, e @ k[:, None]

        def d_fn(zs):
            _, _, x, _, _, dp = first_order(zs)
            return -x[:, None] @ dp @ x[:, None]

        def dd_fn(zs):
            h, k, x, dg, e, dp = first_order(zs)
            f = dg @ k[:, None]
            kh, h1 = conj_transpose(k)[:, None, None], h[:, None]
            ddp = (
                e[:, :, None] @ (h1 @ conj_transpose(e))[:, None, :]
                + conj_transpose(f)[:, None, :] @ (h1 @ f)[:, :, None]
                - kh @ amb.dd_stack(zs) @ k[:, None, None]
            )
            dph = conj_transpose(dp)
            x2 = x[:, None, None]
            inner = dp[:, :, None] @ x2 @ dph[:, None, :] + dph[:, None, :] @ x2 @ dp[:, :, None] - ddp
            return x2 @ inner @ x2

        return d_fn, dd_fn

    def at(self, z):
        """The record of sequence data at z and its probe ring (a
        :class:`_SeqRows`).  The latest one is kept
        (:func:`charts.last_point_cache`), so every reader at one point
        shares its solves; the chart never changes, so a kept record never
        goes stale."""
        return self._at(_as_point(z, self.m))


def _singular_core(z):
    return HermitiaError(
        "w0 j is singular at %s: the inclusion there has lost rank or meets the complement "
        "of its value at the chart centre, so the quotient frame is not defined" % _named(z)
    )


def _not_positive(z):
    where = np.array2string(z, precision=3)
    return NotPositiveAtPoint(
        "ambient Gram matrix is not positive-definite at %s, which the "
        "closed-form quotient metric needs" % where
    )


def _pd_inverse(g, zs):
    """G^-1 at each of a (B, m) stack of points from one batched Cholesky
    factorization G = L L^H.  A NaN or inf raises NonFinite, and a factor
    that fails raises NotPositiveAtPoint, naming the first point where it
    happens."""
    require_finite_rows(g, "ambient Gram matrix of the quotient jet", zs)
    low = stacked_linalg(np.linalg.cholesky, g, zs, _not_positive)
    inv_low = np.linalg.inv(low)
    return conj_transpose(inv_low) @ inv_low


def _form_stack(zs, grams):
    return FormStack(np.ascontiguousarray(grams), zs, RANK_TOL)


def _sigma_rows(zs, q, dj, j, a_e, a_s):
    """sigma = q (dj + A_E j - j A_S) at a stack of points."""
    j = j[:, None]
    return q[:, None] @ (dj + a_e @ j - j @ a_s)


def _view(name, part=None):
    """The reader ``name`` of a :class:`_SeqRows`: its quantity ``_`` +
    name, or for a field its record with ``part`` (``solves`` or
    ``forms``) read, on the longest leading prefix record where that
    passes (:meth:`_SeqRows._cut`); it raises the error of z when z
    fails."""
    return property(lambda rec: rec._cut("_" + name, part).rows())


class _SeqRows:
    """All sequence data at a point z and its probe ring: the 4m + 1
    points ``zs`` of :func:`~hermitia.charts._gate_stencil` with step
    ``PROBE_STEP``, z first.  Each quantity is an array with the points
    on the leading axis, computed on first read.  The readers take z's
    row; :meth:`probe` differences rows 1 to 4m.

    One read: the ambient's Gram kernel at the gate stencils of the
    points, in one call (OutOfDomain if a point is not inside the chart
    by the gate's margin), then, for the sub or the quotient, the
    inclusion there in one call.  ``_ambient``, ``_sub`` and ``_quot``
    (each a :class:`~hermitia.charts.FieldRows`) take the forms of their
    field from the centre rows of that read and their gate rows from all
    of it (the quotient's at z alone), so each field is solved once.
    Their closures bind locals, never the record, which would then hold
    itself in a cycle.  Reading the ambient alone reads no inclusion.
    ``j`` is the centre rows of the inclusion's read, ``dj`` one read at
    zs, and ``q``, ``dq`` and the quotient's forms come from one quotient
    frame of j.  j dagger, q dagger, sigma and sigma dagger are stacked
    products over all points (:func:`~hermitia.forms.adjoint_stack`),
    each row the arithmetic of one point.

    Each quantity raises when a point fails, a point's steps being the
    read, then, in the order of the per-point oracle, the ambient solve,
    the sub solve and the quotient frame.  The readers (``j``, ``q``,
    ``dq``, ``jdag``, ``qdag``, ``sigma``, ``sigma_dagger``, and
    ``ambient``, ``sub`` and ``quot`` with their solves, or the
    quotient's forms, read) are views onto the longest leading prefix
    record ``_SeqRows(seq, zs[:k])`` where the quantity passes, found by
    :func:`~hermitia.charts._leading` and built once per k: the record
    itself when every point passes.  So a reader of z's row raises only
    z's error, and a probe the first failing point's."""

    def __init__(self, seq: ExactSeqChart, zs):
        self.seq = seq
        self.zs = zs
        self._prefixes, self._cuts = {}, {}

    @property
    def z(self):
        return self.zs[0]

    def _prefix(self, k):
        """The record of the leading k points, built once."""
        if k == len(self.zs):
            return self
        if k not in self._prefixes:
            self._prefixes[k] = _SeqRows(self.seq, self.zs[:k])
        return self._prefixes[k]

    def _cut(self, name, part=None):
        """The :class:`~hermitia.charts._Rows` of the quantity ``name``
        (with ``part`` of a field record read, the same part on every
        call) on the longest leading prefix record where it passes, and
        the error of the first point that fails; found once per
        quantity."""
        if name not in self._cuts:

            def step(zs):
                value = getattr(self._prefix(len(zs)), name)
                if part is not None:
                    getattr(value, part)
                return value

            self._cuts[name] = _leading(step, self.zs)
        return self._cuts[name]

    @cached_property
    def _read(self):
        """The ambient's Gram matrices at the gate stencils of the points
        and those stencils (:func:`charts._gate_reads`)."""
        return _gate_reads(self.seq.ambient, self.zs)

    @cached_property
    def _gate_j(self):
        stencils = self._read[1]
        j = self.seq._j_stack(stencils.reshape(-1, self.seq.m))
        return j.reshape(stencils.shape[:2] + j.shape[1:])

    @cached_property
    def _j(self):
        return self._gate_j[:, 0]

    @cached_property
    def dj(self):
        return self.seq._dj_stack(self.zs)

    @cached_property
    def _frames(self):
        """C and q (:meth:`ExactSeqChart._frames`) at the points."""
        return self.seq._frames(self.zs, self._j)

    @property
    def _q(self):
        return self._frames[1]

    @cached_property
    def _dq(self):
        return self.seq._dq_of(self._j, self._frames[0], self.dj)

    @cached_property
    def _ambient(self):
        zs, grams = self.zs, self._read[0]
        return FieldRows(self.seq.ambient, zs, lambda: grams, lambda: _form_stack(zs, grams[:, 0]))

    @cached_property
    def _sub(self):
        seq, zs, (grams, stencils) = self.seq, self.zs, self._read
        sub = seq._grams("sub", stencils, grams, self._gate_j)
        return FieldRows(seq.sub_field, zs, lambda: sub, lambda: _form_stack(zs, sub[:, 0]))

    @cached_property
    def _quot(self):
        seq, zs, (grams, stencils), gate_j, q = self.seq, self.zs, self._read, self._gate_j, self._q
        return FieldRows(
            seq.quot_field,
            zs,
            lambda: seq._grams("quot", stencils[:1], grams[:1], gate_j[:1]),
            lambda: _form_stack(zs, seq._quot_grams(zs, grams[:, 0], q)),
        )

    @cached_property
    def _jdag(self):
        return adjoint_stack(self._j, self._sub.forms, self._ambient.forms)

    @cached_property
    def _qdag(self):
        return adjoint_stack(self._q, self._ambient.forms, self._quot.forms)

    @cached_property
    def _sigma(self):
        a_e, a_s = self._ambient.solves.a, self._sub.solves.a
        return _sigma_rows(self.zs, self._q, self.dj, self._j, a_e, a_s)

    @cached_property
    def _sigma_dagger(self):
        return adjoint_stack(self._sigma, self._sub.forms, self._quot.forms)

    j = _view("j")
    q = _view("q")
    dq = _view("dq")
    jdag = _view("jdag")
    qdag = _view("qdag")
    sigma = _view("sigma")
    sigma_dagger = _view("sigma_dagger")
    ambient = _view("ambient", "solves")
    sub = _view("sub", "solves")
    # the quotient is solved at z alone, so its record is cut where its
    # forms fail, and its solve raises only z's error
    quot = _view("quot", "forms")

    def probe(self, name, conjugate=False):
        """d_a (or dbar_a when ``conjugate``) at z of the quantity ``name``
        (``jdag``, ``qdag``, ``sigma`` or ``sigma_dagger``) for every
        coordinate a, shape (m, ...): the Wirtinger difference of step
        ``PROBE_STEP`` of rows 1 to 4m, combined by
        :func:`~hermitia.charts._combine_ring`; the error of the first
        point that fails, if any does."""
        rows = self._cut("_" + name)
        if rows.n < len(self.zs):
            rows.raise_error()
        return _combine_ring(rows.value[1:], PROBE_STEP, conjugate)


@dataclass
class SecondFundamentalFormAt:
    point: np.ndarray
    sigma: np.ndarray  # (m, r-k, k)
    sigma_dagger: np.ndarray  # (m, k, r-k)
    dbar_part_residual: float


def second_fundamental_form(seq: ExactSeqChart, z) -> SecondFundamentalFormAt:
    """sigma(d_alpha) = q (d_alpha j + A_E j - j A_S) with its form adjoint.

    The antiholomorphic analogue q dbar_alpha j must vanish (the form has
    pure (1,0) type); its residual is reported and gated at 1e-6.  Where
    sigma maps Ker b_S outside Ker b_Q, its adjoint raises NoAdjoint.
    """
    at = seq.at(z)
    dbar_j = seq._j_fd(at.zs[:1], conjugate=True)[0]
    q = at.q[0]
    worst = worst_of(np.linalg.norm(q @ db) for db in dbar_j)
    sigma = at.sigma[0]
    scale = 1.0 + float(np.linalg.norm(sigma))
    if not worst <= SIGMA_DBAR_TOL * scale:
        raise HermitiaError(
            "second fundamental form has a (0,1)-part of size %.2e" % worst
        )
    return SecondFundamentalFormAt(
        point=at.z.copy(),
        sigma=sigma.copy(),
        sigma_dagger=at.sigma_dagger[0].copy(),
        dbar_part_residual=worst / scale,
    )


# ---------------------------------------------------------------------------
# the identity table


def _rel(contracted, *scales):
    s = 1.0 + max((float(np.linalg.norm(x)) for x in scales), default=0.0)
    return float(np.linalg.norm(contracted)) / s


def demailly_residuals(seq: ExactSeqChart, z):
    """Residuals of the five derivative identities, contracted with Grams.

    Lines: (1) D'j ~ qdag sigma; (2) D'q ~ -sigma jdag; (3) D'jdag ~ 0 and
    dbar jdag ~ sigdag q; (4) D'qdag ~ 0 and dbar qdag ~ -j sigdag;
    (5) antisymmetrized D'sigma ~ 0 and antisymmetrized dbar sigdag ~ 0.
    """
    at = seq.at(z)
    m = seq.m
    a_e, a_s, a_q = at.ambient.a, at.sub.a, at.quot.a
    g_e, g_s, g_q = at.ambient.form.gram, at.sub.form.gram, at.quot.form.gram
    j, dj, q, dq = at.j[0], at.dj[0], at.q[0], at.dq[0]
    jdag, qdag, sigma, sigdag = at.jdag[0], at.qdag[0], at.sigma[0], at.sigma_dagger[0]

    out = {}

    r1 = []
    for a in range(m):
        dpj = dj[a] + a_e[a] @ j - j @ a_s[a]
        lhs = g_e @ dpj
        rhs = g_e @ (qdag @ sigma[a])
        r1.append(_rel(lhs - rhs, lhs, rhs))
    out["inclusion"] = worst_of(r1)

    r2 = []
    for a in range(m):
        dpq = dq[a] + a_q[a] @ q - q @ a_e[a]
        lhs = g_q @ dpq
        rhs = -g_q @ (sigma[a] @ jdag)
        r2.append(_rel(lhs - rhs, lhs, rhs))
    out["projection"] = worst_of(r2)

    r3 = []
    djdag, dbjdag = at.probe("jdag"), at.probe("jdag", conjugate=True)
    for a in range(m):
        dpjdag = djdag[a] + a_s[a] @ jdag - jdag @ a_e[a]
        r3.append(_rel(g_s @ dpjdag, g_s @ djdag[a]))
        rhs = sigdag[a] @ q
        r3.append(_rel(g_s @ (dbjdag[a] - rhs), g_s @ dbjdag[a], g_s @ rhs))
    out["inclusion_adjoint"] = worst_of(r3)

    r4 = []
    dqdag, dbqdag = at.probe("qdag"), at.probe("qdag", conjugate=True)
    for a in range(m):
        dpqdag = dqdag[a] + a_e[a] @ qdag - qdag @ a_q[a]
        r4.append(_rel(g_e @ dpqdag, g_e @ dqdag[a]))
        rhs = -j @ sigdag[a]
        r4.append(_rel(g_e @ (dbqdag[a] - rhs), g_e @ dbqdag[a], g_e @ rhs))
    out["projection_adjoint"] = worst_of(r4)

    r5 = []
    if m > 1:
        dsig = at.probe("sigma")
        dbsigdag = at.probe("sigma_dagger", conjugate=True)
        for a in range(m):
            for b in range(a + 1, m):
                dpsab = dsig[a][b] + a_q[a] @ sigma[b] - sigma[b] @ a_s[a]
                dpsba = dsig[b][a] + a_q[b] @ sigma[a] - sigma[a] @ a_s[b]
                r5.append(_rel(g_q @ (dpsab - dpsba), g_q @ dpsab, g_q @ dpsba))
                dbsab = dbsigdag[a][b]
                dbsba = dbsigdag[b][a]
                r5.append(_rel(g_s @ (dbsab - dbsba), g_s @ dbsab, g_s @ dbsba))
    out["second_form_closed"] = worst_of(r5)
    return out


# ---------------------------------------------------------------------------
# Codazzi-type corollaries


def _contract(block, s, t):
    return complex(np.einsum("st,s,t->", block, s, np.conj(t)))


def codazzi_sub(seq: ExactSeqChart, z, alpha, beta, s, t):
    """Ambient curvature on js, jt minus the quotient square of sigma.

    Equals the intrinsic curvature of the induced sub form (the oracle
    the tests compare against).
    """
    at = seq.at(z)
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=complex)
    j = at.j[0]
    ambient_term = _contract(at.ambient.tensor[alpha, beta], j @ s, j @ t)
    sigma = at.sigma[0]
    sq = np.vdot(sigma[beta] @ t, at.quot.form.gram @ (sigma[alpha] @ s))
    return ambient_term - complex(sq)


def codazzi_quot(seq: ExactSeqChart, z, alpha, beta, u, v):
    """Ambient curvature on qdag u, qdag v plus the sub square of sigma dagger."""
    at = seq.at(z)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    qdag = at.qdag[0]
    ambient_term = _contract(at.ambient.tensor[alpha, beta], qdag @ u, qdag @ v)
    sigdag = at.sigma_dagger[0]
    sq = np.vdot(sigdag[alpha] @ v, at.sub.form.gram @ (sigdag[beta] @ u))
    return ambient_term + complex(sq)


# ---------------------------------------------------------------------------
# block splitting of the contracted curvature


@dataclass
class SplittingBlocks:
    point: np.ndarray
    ss: np.ndarray  # (m, m, k, k): contracted sub curvature
    sq: np.ndarray  # (m, m, k, r-k): G_S D' sigma_dagger
    qs: np.ndarray  # (m, m, r-k, k): G_Q dbar sigma
    qq: np.ndarray  # (m, m, r-k, r-k): contracted quotient curvature
    reassembly_residual: float


def splitting_curvature_blocks(seq: ExactSeqChart, z) -> SplittingBlocks:
    """Contracted ambient curvature in the smooth splitting e -> (jdag e, q e).

    The diagonal blocks are the intrinsic contracted curvatures of sub
    and quotient; the off-diagonal blocks are derivative forms of the
    second fundamental form.  Conjugating the blocks back must reproduce
    the ambient contracted curvature (mod ambient kernel), and the
    relative residual of that reassembly is returned.
    """
    at = seq.at(z)
    m, k, rk = seq.m, seq.k, seq.r - seq.k

    r_e, r_s, r_q = at.ambient.tensor, at.sub.tensor, at.quot.tensor
    a_s, a_q = at.sub.a, at.quot.a
    g_s, g_q = at.sub.form.gram, at.quot.form.gram
    dsig = at.probe("sigma", conjugate=True)
    dpsigdag = at.probe("sigma_dagger")
    jdag, q, sigma, sigdag = at.jdag[0], at.q[0], at.sigma[0], at.sigma_dagger[0]

    ss = np.empty((m, m, k, k), dtype=complex)
    sq = np.empty((m, m, k, rk), dtype=complex)
    qs = np.empty((m, m, rk, k), dtype=complex)
    qq = np.empty((m, m, rk, rk), dtype=complex)
    residuals = []
    for a in range(m):
        for b in range(m):
            m_e = r_e[a, b].T
            m_s = r_s[a, b].T
            m_q = r_q[a, b].T
            ss[a, b] = m_s
            qq[a, b] = m_q
            dps = dpsigdag[a][b] + a_s[a] @ sigdag[b] - sigdag[b] @ a_q[a]
            sq[a, b] = g_s @ dps
            qs[a, b] = g_q @ dsig[b][a]
            sig_sq = sigma[b].conj().T @ g_q @ sigma[a]
            sigdag_sq = sigdag[a].conj().T @ g_s @ sigdag[b]
            rebuilt = (
                jdag.conj().T @ (m_s + sig_sq) @ jdag
                - jdag.conj().T @ sq[a, b] @ q
                - q.conj().T @ qs[a, b] @ jdag
                + q.conj().T @ (m_q - sigdag_sq) @ q
            )
            residuals.append(_rel(rebuilt - m_e, m_e, rebuilt))
    return SplittingBlocks(
        point=at.z.copy(), ss=ss, sq=sq, qs=qs, qq=qq, reassembly_residual=worst_of(residuals)
    )


# ---------------------------------------------------------------------------
# curvature of a sum of two forms


def sum_curvature(b1_field: ChartField, b2_field: ChartField, z) -> FieldAt:
    """Contracted curvature of b1 + b2 assembled from the summands: the
    record of the sum field at z, its ``tensor`` from this formula.

    M^h_ab = M^1_ab + M^2_ab - sigma_b^H G_q sigma_a with sigma_a =
    A_1(d_a) - A_2(d_a) and G_q the Gram matrix of the induced sum
    quotient form.  Kernel-valued changes of either connection leave the
    result unchanged because G_q annihilates both kernels.
    """
    z = np.asarray(z, dtype=complex)
    t1 = curvature_tensor(b1_field, z)
    t2 = curvature_tensor(b2_field, z)
    gq = sum_quotient_form(t1.form, t2.form).gram
    sigma = t1.a - t2.a
    # x[a, b] = sigma_b^H G_q sigma_a, all pairs in one stacked product
    x = (conj_transpose(sigma)[None, :] @ gq) @ sigma[:, None]
    out = FieldAt(sum_field(b1_field, b2_field), z)
    out.tensor = t1.tensor + t2.tensor - x.swapaxes(-1, -2)
    return out
