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
Gram matrices are computed for a whole stack of points from one stacked
read of the ambient field (batched Cholesky factorizations and inverses
for the closed-form quotient, quotient_form of each row's form
otherwise), so the constant-rank gate of either field makes one ambient
read.  Both kernels are functions of the ambient rows, so a caller that
has read the ambient at a stack already applies them to its rows.  The
sub and quotient fields take the ambient's chart and finite-difference
steps, so their gates read the ambient at the ambient's gate points.

Per-point data: :meth:`ExactSeqChart.at` keeps one record of everything
at a base point.  It holds one :class:`~hermitia.charts.FieldAt` for each
of the ambient, sub and quotient fields, so each field is solved at most
once per point, and its form, connection and curvature all come from
that one record.  The three records share one read of the ambient's Gram
kernel at the 4m + 1 gate points of the base point, and one read of the
inclusion there: the sub and quotient gate rows are the sub and quotient
kernels of those rows, built when that record is first read.  Each
record is a :class:`~hermitia.charts.FieldAt` whose row reader is that
shared read, so a form read before its solve is factorized once, by the
one-row :class:`~hermitia.forms.FormStack` the solve reuses.  The base
point's j is the centre row of the gate read of the inclusion, and its
dj is one one-row read, which sigma and dq share; q and dq come from
one quotient frame of that j.  The inclusion j and its derivative dj
are kernels of a stack of points, so every stack of points reads each
of them in one call.  The
derivatives of jdag, qdag, sigma and sigma dagger in the identity table
and the splitting blocks are finite differences, the independent side of
each identity.  Each is taken along every coordinate at once with step
``PROBE_STEP`` from one probe ring: the same quantities at the 4m points
of that stencil around the base point, held as arrays over the ring (no
record per ring point), built once and shared by every probe.  The ring
reads the ambient's Gram kernel three times: once at its 4m points for
the forms of all three fields, on the first probe; once at the
4m (4m + 1) gate points of its ambient and sub solves, on the first probe
of sigma or sigma dagger, when both fields' connections at all ring
points are solved as arrays, each field's from one batched factorization
of its ring forms and one dG read (:func:`~hermitia.charts.solve_rows`);
and once more at the 4m points in the sub field's stacked dG read, beside
the one read of the ambient's dG there for each of the two solves.  So
one point of the identity table, the splitting, sigma and the Codazzi
pairs calls the ambient kernel at most 6 times: once at the base gate
points, once each for the base's sub and quotient jets (one row each,
the d and dd reads of each jet sharing its first-order part), and the
ring's three.  The finite-difference dj of an inclusion given without
dj, and the holomorphy checks of j, read j at the stencils of a whole
stack of points in one call (:meth:`ExactSeqChart._j_fd`).
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
    _as_point,
    _combine_ring,
    _leading_gates,
    _named,
    _stencil_ring,
    curvature_tensor,
    last_point_cache,
    sample_box,
    solve_rows,
)
from .errors import HermitiaError, NotHolomorphic, NotPositiveAtPoint
from .fields import sum_field
from .forms import (
    FormStack,
    LinearMap,
    adjoint,
    adjoint_stack,
    admits_adjoint,
    conj_transpose,
    hermitize,
    quotient_form,
    rank_of,
    require_finite,
    stacked_linalg,
    sum_quotient_form,
)

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
        self._at = last_point_cache(lambda z: _SeqAt(self, z))

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

    def q_at(self, z):
        zs = _as_point(z, self.m)[None]
        return self._frames(zs, self._j_stack(zs))[1][0]

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

    def dq_at(self, z):
        zs = _as_point(z, self.m)[None]
        j = self._j_stack(zs)
        return self._dq_of(j, self._frames(zs, j)[0], self._dj_stack(zs))[0]

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

    @staticmethod
    def _sub_grams(j, g):
        """The sub kernel j^H G j from the inclusion matrices j and the
        ambient Gram matrices g at a stack of points."""
        return conj_transpose(j) @ g @ j

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
            return self._sub_grams(self._j_stack(zs), amb.gram_stack(zs))

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
        stack (:meth:`_quot_grams`)."""
        amb = self.ambient
        d_fn = dd_fn = None
        if self._quot_closed_form:
            d_fn, dd_fn = self._quot_jet()
        return ChartField(
            self.m,
            self.r - self.k,
            lambda zs: self._quot_grams(zs, self._frames(zs, self._j_stack(zs))[1], amb.gram_stack(zs)),
            center=amb.center,
            radius=amb.radius,
            d_fn=d_fn,
            dd_fn=dd_fn,
            fd_step=amb.fd_step,
            fd_outer_step=amb.fd_outer_step,
            name=self.name + ".quot",
            self_check=False,
        )

    def _quot_grams(self, zs, q, g):
        """G_Q at a (B, m) stack of points from the quotient frames q and
        the ambient Gram matrices g there: the closed-form kernel, else
        :func:`~hermitia.forms.quotient_form` of each row's ambient form."""
        if self._quot_closed_form:
            return self._quot_parts(zs, q, g)[2]
        forms = FormStack(g, zs, RANK_TOL)
        return np.stack([quotient_form(LinearMap(qw), forms.form(i)).gram for i, qw in enumerate(q)])

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
        """The per-point record at z.  The latest one is kept
        (:func:`charts.last_point_cache`), so every reader at one base
        point shares its solves and its probe ring; the chart never
        changes, so a kept record never goes stale."""
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
    finite = np.isfinite(g).all(axis=(-2, -1))
    if not finite.all():
        i = int(np.argmin(finite))
        require_finite(g[i], "ambient Gram matrix of the quotient jet", zs[i])
    low = stacked_linalg(np.linalg.cholesky, g, zs, _not_positive)
    inv_low = np.linalg.inv(low)
    return conj_transpose(inv_low) @ inv_low


class _SeqAt:
    """All pointwise sequence data at one chart point, each computed on
    first read, so a read of one quantity solves only what it needs.

    ``ambient``, ``sub`` and ``quot`` are the records (:class:`FieldAt`)
    of the three fields at z: each field is solved at most once per point,
    and its form, connection and curvature are read from its record.  The
    three share one read: the ambient's Gram kernel at the 4m + 1 gate
    points of z in one call (OutOfDomain first if z leaves the chart by
    the gate's margin), then, for the sub or the quotient, the inclusion
    there in one call.  Each record's row reader builds its Gram matrices
    from those reads when it needs them: the ambient's are the read
    itself, the sub's j^H G j of it and the quotient's the quotient kernel
    of it (its frames built then), at the centre row alone for a form read
    before the solve, at every gate point for the solve.  Each equals the
    field's own read, so the record's form and solve equal those of a
    :class:`FieldAt` at z bit for bit.  Reading the ambient alone reads no
    inclusion.  ``j`` is the centre row of the inclusion's gate read, so
    reading it reads the gate; ``dj`` is one one-row read; ``q``, ``dq``
    and the frame core C come from one quotient frame of that j.  A base
    record built by :meth:`ExactSeqChart.at` also owns
    a probe ring, ``ring`` (a :class:`_Ring`, the same quantities as
    arrays over the 4m Wirtinger stencil points around z), from which
    :meth:`probe` differences j dagger, q dagger, sigma and sigma dagger.
    """

    def __init__(self, seq: ExactSeqChart, z):
        self.seq = seq
        self.z = z

    @cached_property
    def _gate_read(self):
        """The gate stencil of z and the ambient's Gram matrices there."""
        zs = _leading_gates(self.seq.ambient, self.z[None])[0]
        return zs, self.seq.ambient.gram_stack(zs)

    @cached_property
    def _gate_j(self):
        return self.seq._j_stack(self._gate_read[0])

    def _ambient_rows(self, n):
        return self._gate_read[1][:n]

    def _sub_rows(self, n):
        return hermitize(self.seq._sub_grams(self._gate_j[:n], self._gate_read[1][:n]))

    def _quot_rows(self, n):
        zs, g = (part[:n] for part in self._gate_read)
        q = self.seq._frames(zs, self._gate_j[:n])[1]
        return hermitize(self.seq._quot_grams(zs, q, g))

    @cached_property
    def ring(self):
        return _Ring(self.seq, self.z)

    def probe(self, name, conjugate=False):
        """d_a (or dbar_a when ``conjugate``) of the quantity ``name``
        (``jdag``, ``qdag``, ``sigma`` or ``sigma_dagger``) for every
        coordinate a, shape (m, ...): the Wirtinger difference of step
        ``PROBE_STEP`` of the ring's rows, combined by
        :func:`~hermitia.charts._combine_ring`, equal to ``ring_fd`` over
        fresh records bit for bit."""
        return _combine_ring(getattr(self.ring, name), PROBE_STEP, conjugate)

    @cached_property
    def ambient(self):
        return FieldAt(self.seq.ambient, self.z, self._ambient_rows)

    @cached_property
    def sub(self):
        return FieldAt(self.seq.sub_field, self.z, self._sub_rows)

    @cached_property
    def quot(self):
        return FieldAt(self.seq.quot_field, self.z, self._quot_rows)

    @cached_property
    def j(self):
        return self._gate_j[0]

    @cached_property
    def dj(self):
        return self.seq._dj_stack(self.z[None])[0]

    @cached_property
    def _frames(self):
        """C and q at z from the record's j (:meth:`ExactSeqChart._frames`)."""
        return self.seq._frames(self.z[None], self.j[None])

    @cached_property
    def q(self):
        return self._frames[1][0]

    @cached_property
    def dq(self):
        return self.seq._dq_of(self.j[None], self._frames[0], self.dj[None])[0]

    @cached_property
    def jdag(self):
        return adjoint(LinearMap(self.j), self.sub.form, self.ambient.form).matrix

    @cached_property
    def qdag(self):
        return adjoint(LinearMap(self.q), self.ambient.form, self.quot.form).matrix

    @cached_property
    def sigma(self):
        a_e, a_s = self.ambient.a, self.sub.a
        return np.stack(
            [self.q @ (self.dj[a] + a_e[a] @ self.j - self.j @ a_s[a]) for a in range(self.seq.m)]
        )

    @cached_property
    def sigma_dagger(self):
        sigma = self.sigma
        b_s, b_q = self.sub.form, self.quot.form
        return np.stack([adjoint(LinearMap(sigma[a]), b_s, b_q).matrix for a in range(self.seq.m)])


class _Ring:
    """The probe ring of a base point z: the sequence data at the 4m points
    ``zs`` of :func:`~hermitia.charts._stencil_ring` (step ``PROBE_STEP``)
    as arrays with the ring on the leading axis, each computed on first
    read.  Row i equals the same quantity of a fresh ``_SeqAt(seq,
    zs[i])`` bit for bit.  It is built in two stages:

    * the forms, on construction: the ambient Gram matrices at zs in one
      read, and from those rows the sub kernel j^H G j and the quotient
      kernel, each a :class:`~hermitia.forms.FormStack` (one batched
      ``eigh`` when a rank or pseudoinverse is read); j dagger and
      q dagger read only these, so the adjoint probes run no gate;
    * the solves, on the first read of sigma or sigma dagger: the ambient
      read at the 4m (4m + 1) gate points of the ring in one call, whose
      rows serve the ambient and the sub gates, and the ambient and sub
      connections of the whole ring by :func:`~hermitia.charts.solve_rows`
      (one dG read each).  Only the ring points before the first one
      outside the chart are solved, and the error raised is the
      per-point ring's first: the ambient solve, then the sub solve, at
      each ring point in turn.
    """

    def __init__(self, seq: ExactSeqChart, z):
        self.seq = seq
        self.zs = zs = _stencil_ring(z, PROBE_STEP)
        g = seq.ambient.gram_stack(zs)
        self.j = seq._j_stack(zs)
        self.q = seq._frames(zs, self.j)[1]
        self.ambient = FormStack(g, zs, RANK_TOL)
        self.sub = FormStack(hermitize(seq._sub_grams(self.j, g)), zs, RANK_TOL)
        self.quot = FormStack(hermitize(seq._quot_grams(zs, self.q, g)), zs, RANK_TOL)

    @cached_property
    def jdag(self):
        return adjoint_stack(self.j, self.sub, self.ambient)

    @cached_property
    def qdag(self):
        return adjoint_stack(self.q, self.ambient, self.quot)

    @cached_property
    def solved(self):
        """The :class:`~hermitia.charts.RowSolves` of the ambient and the
        sub field at every ring point (see the class docstring)."""
        seq, amb, zs = self.seq, self.seq.ambient, self.zs
        stencils = _leading_gates(amb, zs)
        inside = len(stencils)
        points, gates = stencils.reshape(-1, seq.m), stencils.shape[:2]
        g = amb.gram_stack(points)
        sub_rows = hermitize(seq._sub_grams(seq._j_stack(points), g)).reshape(gates + (seq.k, seq.k))
        ambient, error = solve_rows(amb, zs[:inside], g.reshape(gates + (seq.r, seq.r)), self.ambient)
        n = len(ambient.a)  # the ambient fails at ring point n, if anywhere
        sub, sub_error = solve_rows(seq.sub_field, zs[:n], sub_rows[:n], self.sub)
        if sub_error is not None:
            raise sub_error
        if error is not None:
            raise error
        if inside < len(zs):
            _leading_gates(amb, zs[inside:])
        return ambient, sub

    @cached_property
    def sigma(self):
        ambient, sub = self.solved
        dj = self.seq._dj_stack(self.zs)
        j = self.j[:, None]
        return self.q[:, None] @ (dj + ambient.a @ j - j @ sub.a)

    @cached_property
    def sigma_dagger(self):
        return adjoint_stack(self.sigma, self.sub, self.quot)


@dataclass
class SecondFundamentalFormAt:
    point: np.ndarray
    sigma: np.ndarray  # (m, r-k, k)
    sigma_dagger: np.ndarray  # (m, k, r-k)
    dbar_part_residual: float


def second_fundamental_form(seq: ExactSeqChart, z) -> SecondFundamentalFormAt:
    """sigma(d_alpha) = q (d_alpha j + A_E j - j A_S) with its form adjoint.

    The antiholomorphic analogue q dbar_alpha j must vanish (the form has
    pure (1,0) type); its residual is reported and gated at 1e-6.
    """
    at = seq.at(z)
    dbar_j = seq._j_fd(at.z[None], conjugate=True)[0]
    worst = max(float(np.linalg.norm(at.q @ db)) for db in dbar_j)
    scale = 1.0 + float(np.linalg.norm(at.sigma))
    if worst > SIGMA_DBAR_TOL * scale:
        raise HermitiaError(
            "second fundamental form has a (0,1)-part of size %.2e" % worst
        )
    for a in range(seq.m):
        if not admits_adjoint(LinearMap(at.sigma[a]), at.sub.form, at.quot.form):
            raise HermitiaError("second fundamental form does not admit an adjoint")
    return SecondFundamentalFormAt(
        point=at.z.copy(),
        sigma=at.sigma.copy(),
        sigma_dagger=at.sigma_dagger.copy(),
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

    out = {}

    r1 = 0.0
    for a in range(m):
        dpj = at.dj[a] + a_e[a] @ at.j - at.j @ a_s[a]
        lhs = g_e @ dpj
        rhs = g_e @ (at.qdag @ at.sigma[a])
        r1 = max(r1, _rel(lhs - rhs, lhs, rhs))
    out["inclusion"] = r1

    r2 = 0.0
    for a in range(m):
        dpq = at.dq[a] + a_q[a] @ at.q - at.q @ a_e[a]
        lhs = g_q @ dpq
        rhs = -g_q @ (at.sigma[a] @ at.jdag)
        r2 = max(r2, _rel(lhs - rhs, lhs, rhs))
    out["projection"] = r2

    r3 = 0.0
    djdag, dbjdag = at.probe("jdag"), at.probe("jdag", conjugate=True)
    for a in range(m):
        dpjdag = djdag[a] + a_s[a] @ at.jdag - at.jdag @ a_e[a]
        r3 = max(r3, _rel(g_s @ dpjdag, g_s @ djdag[a]))
        rhs = at.sigma_dagger[a] @ at.q
        r3 = max(r3, _rel(g_s @ (dbjdag[a] - rhs), g_s @ dbjdag[a], g_s @ rhs))
    out["inclusion_adjoint"] = r3

    r4 = 0.0
    dqdag, dbqdag = at.probe("qdag"), at.probe("qdag", conjugate=True)
    for a in range(m):
        dpqdag = dqdag[a] + a_e[a] @ at.qdag - at.qdag @ a_q[a]
        r4 = max(r4, _rel(g_e @ dpqdag, g_e @ dqdag[a]))
        rhs = -at.j @ at.sigma_dagger[a]
        r4 = max(r4, _rel(g_e @ (dbqdag[a] - rhs), g_e @ dbqdag[a], g_e @ rhs))
    out["projection_adjoint"] = r4

    r5 = 0.0
    if m > 1:
        dsig = at.probe("sigma")
        dbsigdag = at.probe("sigma_dagger", conjugate=True)
        for a in range(m):
            for b in range(a + 1, m):
                dpsab = dsig[a][b] + a_q[a] @ at.sigma[b] - at.sigma[b] @ a_s[a]
                dpsba = dsig[b][a] + a_q[b] @ at.sigma[a] - at.sigma[a] @ a_s[b]
                r5 = max(r5, _rel(g_q @ (dpsab - dpsba), g_q @ dpsab, g_q @ dpsba))
                dbsab = dbsigdag[a][b]
                dbsba = dbsigdag[b][a]
                r5 = max(r5, _rel(g_s @ (dbsab - dbsba), g_s @ dbsab, g_s @ dbsba))
    out["second_form_closed"] = r5
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
    ambient_term = _contract(at.ambient.tensor[alpha, beta], at.j @ s, at.j @ t)
    sq = np.vdot(at.sigma[beta] @ t, at.quot.form.gram @ (at.sigma[alpha] @ s))
    return ambient_term - complex(sq)


def codazzi_quot(seq: ExactSeqChart, z, alpha, beta, u, v):
    """Ambient curvature on qdag u, qdag v plus the sub square of sigma dagger."""
    at = seq.at(z)
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    ambient_term = _contract(at.ambient.tensor[alpha, beta], at.qdag @ u, at.qdag @ v)
    sq = np.vdot(at.sigma_dagger[alpha] @ v, at.sub.form.gram @ (at.sigma_dagger[beta] @ u))
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

    ss = np.empty((m, m, k, k), dtype=complex)
    sq = np.empty((m, m, k, rk), dtype=complex)
    qs = np.empty((m, m, rk, k), dtype=complex)
    qq = np.empty((m, m, rk, rk), dtype=complex)
    worst = 0.0
    for a in range(m):
        for b in range(m):
            m_e = r_e[a, b].T
            m_s = r_s[a, b].T
            m_q = r_q[a, b].T
            ss[a, b] = m_s
            qq[a, b] = m_q
            dps = dpsigdag[a][b] + a_s[a] @ at.sigma_dagger[b] - at.sigma_dagger[b] @ a_q[a]
            sq[a, b] = g_s @ dps
            qs[a, b] = g_q @ dsig[b][a]
            sig_sq = at.sigma[b].conj().T @ g_q @ at.sigma[a]
            sigdag_sq = at.sigma_dagger[a].conj().T @ g_s @ at.sigma_dagger[b]
            rebuilt = (
                at.jdag.conj().T @ (m_s + sig_sq) @ at.jdag
                - at.jdag.conj().T @ sq[a, b] @ at.q
                - at.q.conj().T @ qs[a, b] @ at.jdag
                + at.q.conj().T @ (m_q - sigdag_sq) @ at.q
            )
            worst = max(worst, _rel(rebuilt - m_e, m_e, rebuilt))
    return SplittingBlocks(
        point=at.z.copy(), ss=ss, sq=sq, qs=qs, qq=qq, reassembly_residual=worst
    )


# ---------------------------------------------------------------------------
# curvature of a sum of two forms


def sum_curvature(
    b1_field: ChartField, b2_field: ChartField, z, perturb1=None, perturb2=None
) -> FieldAt:
    """Contracted curvature of b1 + b2 assembled from the summands: the
    record of the sum field at z, its ``tensor`` from this formula.

    M^h_ab = M^1_ab + M^2_ab - sigma_b^H G_q sigma_a with sigma_a =
    A_1(d_a) - A_2(d_a) and G_q the Gram matrix of the induced sum
    quotient form.  Kernel-valued changes of either connection leave the
    result unchanged because G_q annihilates both kernels; optional
    ``perturb1``/``perturb2`` (z -> (m, r, r) stacks) exist to let tests
    exercise exactly that.
    """
    z = np.asarray(z, dtype=complex)
    t1 = curvature_tensor(b1_field, z)
    t2 = curvature_tensor(b2_field, z)
    a1, a2 = t1.a, t2.a
    if perturb1 is not None:
        a1 = a1 + np.asarray(perturb1(z), dtype=complex)
    if perturb2 is not None:
        a2 = a2 + np.asarray(perturb2(z), dtype=complex)
    gq = sum_quotient_form(t1.form, t2.form).gram
    m, r = b1_field.m, b1_field.shape
    tensor = np.empty((m, m, r, r), dtype=complex)
    for a in range(m):
        for b in range(m):
            sig_a = a1[a] - a2[a]
            sig_b = a1[b] - a2[b]
            m_h = t1.tensor[a, b].T + t2.tensor[a, b].T - sig_b.conj().T @ gq @ sig_a
            tensor[a, b] = m_h.T
    out = FieldAt(sum_field(b1_field, b2_field), z)
    out.tensor = tensor
    return out
