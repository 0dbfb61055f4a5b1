"""Linear algebra of possibly degenerate Hermitian forms.

Conventions
-----------
A form b on C^n is stored through its Gram matrix with ``gram[j, k] =
b(e_k, conj(e_j))``, so that for coordinate columns ``s``, ``t``

    b(s, conj(t)) = t^H @ gram @ s.

With this index order the compatibility equation of a Chern connection
reads ``dG = G @ A`` with no transposes (see :mod:`hermitia.charts`).

All rank decisions go through :func:`rank_of`: a singular value (or, for
a Hermitian Gram matrix, an eigenvalue modulus) counts when it lies above
``rank_tol`` times the largest one, and the zero matrix has rank 0.
NaN or inf met there raise :class:`~hermitia.errors.NonFinite`.

A :class:`HermitianForm` is the one place where a Hermitian Gram matrix
is factorized: one cached ``eigh`` decides its rank, positivity, kernel,
range and pseudoinverse, so :func:`kernel`, :func:`purge` and
:func:`adjoint` can never disagree about where the kernel lies.  The SVD
null space :func:`_nullspace` serves only matrices that are not Hermitian
forms (quotient maps and products such as S^H G).  The constant-rank gate
of :mod:`hermitia.charts` ranks whole stencils by one batched
``eigvalsh`` (:func:`gram_ranks`) and factorizes nothing.  A
:class:`FormStack` holds the forms of a stack of points as arrays, with
no form object per row: the ranks and pseudoinverses of all rows from one
batched ``eigh``, and :func:`adjoint_stack` the adjoints between two
stacks, each row by the arithmetic of :class:`HermitianForm` and
:func:`adjoint`; a row wanted as a form (:meth:`FormStack.form`) takes
its ``eigh`` from the stack's, equal to its own bit for bit.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import NoAdjoint, NonFinite, NotPositive, NotSurjective, HermitiaError

DEFAULT_RANK_TOL = 1e-10
# A form is positive-semidefinite when its lowest eigenvalue lies above
# -PSD_SLACK * rank_tol times its largest eigenvalue modulus (floored at 1).
PSD_SLACK = 100.0
# The two lifts of quotient_form must give Gram matrices within this
# distance, relative to 1 + the norm of the first.
LIFT_AGREEMENT_TOL = 1e-10
# limit_form keeps a generalized eigenvalue x_j of (b1, h0) in the limit
# when |1 - x_j| lies above this cut.
LIMIT_COEFF_CUT = 1e-8
# limit_form's limit and its projection formula must agree to this,
# relative to 1 + the norm of the limit.
LIMIT_PROJECTION_TOL = 1e-8
# equiv_mod_kernel: largest distance of s - t from Ker b, relative to
# 1 + |s - t|.
KERNEL_EQUIV_TOL = 1e-9


def _non_finite(what, point):
    where = "" if point is None else " at %s" % np.array2string(np.asarray(point), precision=3)
    return NonFinite("%s is not finite%s" % (what, where))


def require_finite(values, what, point=None):
    """Raise NonFinite naming ``what`` and the chart point when ``values``
    hold a NaN or an inf."""
    if not np.isfinite(values).all():
        raise _non_finite(what, point)


def rank_of(values, rank_tol, what="spectrum", point=None):
    """The one rank rule: how many of ``values`` (singular values or
    eigenvalue moduli, in any order) lie above ``rank_tol`` times the
    largest.  The zero matrix has rank 0."""
    values = np.asarray(values)
    top = values.max(initial=0.0)
    if not math.isfinite(top):
        raise _non_finite(what, point)
    return int(np.count_nonzero(values > rank_tol * top))


def _eig(solver, g, what="Gram matrix", point=None):
    """``solver(g)`` (``eigvalsh`` or ``eigh``); a NaN or inf in g raises
    NonFinite.  The solvers fail on most such matrices, but return a finite
    spectrum for some with a NaN on the diagonal, which the trace (the sum
    of the eigenvalues) exposes."""
    try:
        out = solver(g)
    except np.linalg.LinAlgError:
        out = None
    if out is None or not cmath.isfinite(g.trace()):
        raise _non_finite(what, point)
    return out


def gram_rank(g, rank_tol, what="Gram matrix", point=None):
    """Rank of a Hermitian matrix from the moduli of its eigenvalues."""
    return rank_of(np.abs(_eig(np.linalg.eigvalsh, g, what, point)), rank_tol, what, point)


def gram_ranks(grams, rank_tol):
    """Ranks of a (B, n, n) stack of Hermitian matrices from one batched
    ``eigvalsh``; row i is ``gram_rank(grams[i], rank_tol)``, or -1 where
    that call raises NonFinite."""
    try:
        moduli = np.abs(np.linalg.eigvalsh(grams))
    except np.linalg.LinAlgError:
        ranks = []
        for g in grams:
            try:
                ranks.append(gram_rank(g, rank_tol))
            except NonFinite:
                ranks.append(-1)
        return np.array(ranks)
    top = moduli.max(axis=-1, initial=0.0)
    ranks = np.count_nonzero(moduli > rank_tol * top[:, None], axis=-1)
    finite = np.isfinite(top) & np.isfinite(np.trace(grams, axis1=-2, axis2=-1))
    return np.where(finite, ranks, -1)


def conj_transpose(m):
    """The conjugate transpose of a matrix, or of each of a stack of them."""
    return m.conj().swapaxes(-1, -2)


def hermitize(m):
    """Average a square matrix, or each of a stack of them, with its
    conjugate transpose."""
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + conj_transpose(m))


def _phase_fix(columns):
    """Rotate each column so its largest entry is real and positive.

    Makes SVD-derived bases deterministic up to the usual degeneracies.
    """
    out = np.array(columns, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        piv = col[i]
        if abs(piv) > 0:
            out[:, j] = col * (piv.conj() / abs(piv))
    return out


def _nullspace(m, rank_tol):
    """Orthonormal basis (columns) of the null space of a general matrix,
    from its SVD.  A Hermitian form's kernel comes from the form."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[1]
    if m.shape[0] == 0 or not np.any(m):
        return np.eye(n, dtype=complex)
    _, s, vh = np.linalg.svd(m)
    return _phase_fix(vh[rank_of(s, rank_tol):].conj().T)


class HermitianForm:
    """A Hermitian form given by its Gram matrix in a fixed frame.

    The matrix is Hermitian-averaged on construction to absorb
    floating-point asymmetry.  Every decision about the form (rank,
    positivity, kernel, range, pseudoinverse) reads one cached
    ``eigh(conj(gram))``, the factorization ``np.linalg.pinv(gram,
    hermitian=True)`` starts from; ``gram`` and ``pinv`` are read-only.
    The eigenpairs are sorted by modulus only when a basis or the
    pseudoinverse is asked for.
    """

    def __init__(self, gram, rank_tol=DEFAULT_RANK_TOL):
        gram = np.asarray(gram, dtype=complex)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("gram must be a square matrix")
        self.gram = hermitize(gram)
        self.gram.flags.writeable = False
        self.rank_tol = float(rank_tol)

    @cached_property
    def _eigh(self):
        return _eig(np.linalg.eigh, np.conj(self.gram))

    @cached_property
    def _by_modulus(self):
        """Eigenvalue moduli in descending order, their eigenvectors of
        conj(gram) as columns and their signs, in the order of numpy's
        Hermitian SVD."""
        w, u = self._eigh
        order = np.argsort(np.abs(w))[::-1]
        return np.abs(w)[order], u[:, order], np.copysign(1.0, w)[order]

    @property
    def dim(self):
        return self.gram.shape[0]

    @property
    def rank(self):
        return rank_of(np.abs(self._eigh[0]), self.rank_tol)

    @property
    def kernel_dim(self):
        return self.dim - self.rank

    @cached_property
    def pinv(self):
        """Pseudoinverse, equal bit for bit to ``np.linalg.pinv(gram,
        rcond=rank_tol, hermitian=True)``, whose steps it repeats."""
        s, u, sgn = self._by_modulus
        inv = np.zeros_like(s)
        r = self.rank
        inv[:r] = 1.0 / s[:r]
        gp = np.conj(u * sgn) @ (inv[:, None] * u.T)
        gp.flags.writeable = False
        return gp

    @property
    def kernel_basis(self):
        """Orthonormal columns spanning Ker b: the eigenvectors whose
        eigenvalues the rank rule discards."""
        return np.conj(self._by_modulus[1][:, self.rank:])

    @property
    def range_basis(self):
        """Orthonormal columns spanning the range of the Gram matrix: the
        eigenvectors the rank rule keeps, largest modulus first."""
        return np.conj(self._by_modulus[1][:, :self.rank])

    def value(self, s, t):
        """b(s, conj(t)) for coordinate columns s and t."""
        s = np.asarray(s, dtype=complex)
        t = np.asarray(t, dtype=complex)
        return complex(t.conj() @ self.gram @ s)

    def scaled(self, c):
        return HermitianForm(c * self.gram, rank_tol=self.rank_tol)

    def is_positive_definite(self):
        w = self._eigh[0]
        return bool(w[0] > self.rank_tol * max(abs(w[-1]), 1e-300))

    def is_positive_semidefinite(self):
        w = self._eigh[0]
        scale = max(abs(w[0]), abs(w[-1]), 1.0)
        return bool(w[0] > -PSD_SLACK * self.rank_tol * scale)

    def __repr__(self):
        return "HermitianForm(dim=%d, rank=%d)" % (self.dim, self.rank)


class FormStack:
    """The forms of a (B, n, n) stack of Hermitian Gram matrices read at
    the B chart points ``points``, as arrays: ``gram``, then from one
    batched ``eigh(conj(gram))``, run on first read, each row's ``rank``,
    ``pinv`` and ``kernel_basis(i)`` by the arithmetic of
    :class:`HermitianForm`, so row i equals ``HermitianForm(gram[i],
    rank_tol)`` bit for bit, and ``form(i)`` is that form, factorized by
    the stack's ``eigh``.  A NaN or inf raises NonFinite naming the
    first point where it is read.  The rows are taken as they are:
    Hermitian-averaged reads, which a form's own averaging leaves
    unchanged bit for bit."""

    def __init__(self, grams, points, rank_tol):
        finite = np.isfinite(grams).all(axis=(-2, -1))
        if not finite.all():
            i = int(np.argmin(finite))
            raise _non_finite("Gram matrix", points[i])
        self.gram = grams
        self.rank_tol = float(rank_tol)

    @property
    def dim(self):
        return self.gram.shape[-1]

    @cached_property
    def _eigh(self):
        return np.linalg.eigh(np.conj(self.gram))

    @cached_property
    def _by_modulus(self):
        """Each row's rank and its eigenvalue moduli (descending), their
        eigenvectors of conj(gram) as columns and their signs, as
        ``HermitianForm.rank`` and ``_by_modulus`` read them."""
        w, u = self._eigh
        moduli = np.abs(w)
        top = moduli.max(axis=-1, initial=0.0)
        rank = np.count_nonzero(moduli > self.rank_tol * top[:, None], axis=-1)
        order = np.argsort(moduli, axis=-1)[:, ::-1]
        rows = np.arange(len(w))[:, None]
        u = u[rows[:, :, None], np.arange(self.dim)[:, None], order[:, None, :]]
        return rank, moduli[rows, order], u, np.copysign(1.0, w)[rows, order]

    @property
    def rank(self):
        return self._by_modulus[0]

    @cached_property
    def pinv(self):
        """Each row's pseudoinverse, as ``HermitianForm.pinv`` forms it."""
        rank, s, u, sgn = self._by_modulus
        kept = np.arange(self.dim) < rank[:, None]
        inv = np.zeros_like(s)
        inv[kept] = 1.0 / s[kept]
        gp = np.conj(u * sgn[:, None, :]) @ (inv[:, :, None] * u.swapaxes(-1, -2))
        gp.flags.writeable = False
        return gp

    def kernel_basis(self, i):
        """Orthonormal columns spanning the kernel of row i."""
        return np.conj(self._by_modulus[2][i][:, self.rank[i]:])

    def form(self, i):
        """Row i as a :class:`HermitianForm` that holds its rows of the
        stack's ``eigh`` and ``pinv``: what its own would give, bit for
        bit."""
        b = HermitianForm(self.gram[i], rank_tol=self.rank_tol)
        b._eigh = (self._eigh[0][i], self._eigh[1][i])
        b.pinv = self.pinv[i]
        return b


class Subspace:
    """A subspace of C^n spanned by the columns of ``basis``."""

    def __init__(self, ambient_dim, basis, rank_tol=DEFAULT_RANK_TOL):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != ambient_dim:
            raise ValueError("basis must be ambient_dim x d")
        if basis.shape[1] > 0:
            s = np.linalg.svd(basis, compute_uv=False)
            if rank_of(s, rank_tol) < basis.shape[1]:
                raise ValueError("basis columns are not linearly independent")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        """Orthogonal projector (standard inner product) onto the subspace."""
        if self.dim == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim), dtype=complex)
        b = self.basis
        return b @ np.linalg.solve(b.conj().T @ b, b.conj().T)

    def __repr__(self):
        return "Subspace(ambient=%d, dim=%d)" % (self.ambient_dim, self.dim)


class LinearMap:
    """A linear map between coordinate spaces, optionally with attached
    domain/codomain forms."""

    def __init__(self, matrix, domain_form=None, codomain_form=None):
        matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
        if domain_form is not None and matrix.shape[1] != domain_form.dim:
            raise ValueError("matrix columns do not match domain form")
        if codomain_form is not None and matrix.shape[0] != codomain_form.dim:
            raise ValueError("matrix rows do not match codomain form")
        self.matrix = matrix
        self.domain_form = domain_form
        self.codomain_form = codomain_form

    @property
    def rows(self):
        return self.matrix.shape[0]

    @property
    def cols(self):
        return self.matrix.shape[1]

    def __repr__(self):
        return "LinearMap(%d x %d)" % self.matrix.shape


@dataclass
class PurgeResult:
    quotient_map: LinearMap
    purged_form: HermitianForm


def kernel(b: HermitianForm) -> Subspace:
    """Orthonormal basis of Ker b = {x : b(x, conj(y)) = 0 for all y}."""
    return Subspace(b.dim, b.kernel_basis, rank_tol=b.rank_tol)


def purge(b: HermitianForm) -> PurgeResult:
    """Quotient by the kernel, with the induced nondegenerate form.

    The quotient basis is the eigenvector complement of the kernel, so
    the quotient map is q = C^H for an orthonormal injection C, and the
    purged Gram matrix C^H G C is the diagonal of the kept eigenvalues,
    read from the form's one factorization: its rank is b's rank.
    """
    q = b.range_basis.conj().T
    s, _, sgn = b._by_modulus
    purged = HermitianForm(np.diag((sgn * s)[:b.rank]), rank_tol=b.rank_tol)
    qmap = LinearMap(q, domain_form=b, codomain_form=purged)
    return PurgeResult(quotient_map=qmap, purged_form=purged)


def _maps_kernel(f_matrix, kv, kw, rank_tol):
    """Whether f maps the span of the orthonormal columns kv into that of
    kw, up to ``rank_tol`` times 1 + |f|."""
    image = f_matrix @ kv
    resid = image - kw @ (kw.conj().T @ image)
    return bool(np.linalg.norm(resid) <= rank_tol * (1.0 + np.linalg.norm(f_matrix)))


def admits_adjoint(f: LinearMap, bV: HermitianForm, bW: HermitianForm) -> bool:
    """True iff f maps Ker bV into Ker bW (so an adjoint exists)."""
    kv = bV.kernel_basis
    if kv.shape[1] == 0:
        return True
    return _maps_kernel(f.matrix, kv, bW.kernel_basis, max(bV.rank_tol, bW.rank_tol))


def adjoint(f: LinearMap, bV: HermitianForm, bW: HermitianForm) -> LinearMap:
    """Canonical adjoint f_dag with b_V(f_dag x, conj(y)) = b_W(x, conj(f y)).

    The defining identity reads G_V @ f_dag = f^H @ G_W; the returned
    solution is the minimum-norm one (columns orthogonal to Ker b_V).
    Any other valid adjoint differs by a map into Ker b_V.
    """
    if not admits_adjoint(f, bV, bW):
        raise NoAdjoint("f does not map Ker b_V into Ker b_W")
    fdag = bV.pinv @ f.matrix.conj().T @ bW.gram
    return LinearMap(fdag, domain_form=bW, codomain_form=bV)


def adjoint_stack(f, bV: FormStack, bW: FormStack):
    """The adjoints of a stack of maps between the rows of two form
    stacks: f is (B, ..., p, q), each matrix of f[i] a map from row i of
    bV to row i of bW, and each result equals ``adjoint`` of it bit for
    bit.  Raises NoAdjoint at the first row, and the first matrix of it,
    that admits none."""
    rank_tol = max(bV.rank_tol, bW.rank_tol)
    for i in np.flatnonzero(bV.rank < bV.dim):
        kv, kw = bV.kernel_basis(i), bW.kernel_basis(i)
        for fi in f[i].reshape((-1,) + f.shape[-2:]):
            if not _maps_kernel(fi, kv, kw, rank_tol):
                raise NoAdjoint("f does not map Ker b_V into Ker b_W")
    lead = (slice(None),) + (None,) * (f.ndim - 3)
    return bV.pinv[lead] @ conj_transpose(f) @ bW.gram[lead]


def adjoint_freedom_dims(f: LinearMap, bV: HermitianForm, bW: HermitianForm):
    """Dimension bookkeeping for the adjoint solution set.

    Returns (torsor_dim, adjointable_codim): the solution set of adjoints,
    when nonempty, is a torsor under Hom(W, Ker b_V) of complex dimension
    dim W * dim Ker b_V (None when f admits no adjoint); the adjointability
    constraint "f maps Ker b_V into Ker b_W" cuts Hom(V, W) down by
    codimension dim Ker b_V * (dim W - dim Ker b_W).

    The codimension is verified against an explicit rank computation of the
    constraint system before being returned.
    """
    jv = bV.kernel_dim
    jw = bW.kernel_dim
    dim_w = bW.dim
    torsor_dim = dim_w * jv if admits_adjoint(f, bV, bW) else None
    codim = jv * (dim_w - jw)

    # Constraint on F in Hom(V, W): P F K_V = 0, with P the projector onto
    # the orthogonal complement of Ker b_W.  Row-major vec gives the system
    # kron(P, K_V^T) vec(F) = 0, whose rank is the codimension.
    kv = bV.kernel_basis
    kw = bW.kernel_basis
    p = np.eye(dim_w, dtype=complex) - kw @ kw.conj().T
    system = np.kron(p, kv.T)
    rank = 0
    if system.size:
        rank = rank_of(np.linalg.svd(system, compute_uv=False), max(bV.rank_tol, bW.rank_tol))
    if rank != codim:
        raise HermitiaError(
            "adjointability codimension mismatch: formula %d, rank %d" % (codim, rank)
        )
    return torsor_dim, codim


def orthogonal_complement(s: Subspace, b: HermitianForm) -> Subspace:
    """S_perp = {v : b(v, conj(w)) = 0 for all w in S}.

    Computed as the null space of S.basis^H @ gram.  Contains Ker b, and
    together with S spans the ambient space.
    """
    if s.ambient_dim != b.dim:
        raise ValueError("subspace and form live in different spaces")
    basis = _nullspace(s.basis.conj().T @ b.gram, b.rank_tol)
    return Subspace(b.dim, basis, rank_tol=b.rank_tol)


@lru_cache(maxsize=None)
def _mixing_unitary(d, tag):
    """A fixed, reproducible unitary used to build an independent lift;
    built once per (d, tag) and shared read-only."""
    rng = np.random.default_rng(np.random.SeedSequence([d, tag]))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(m)
    q.flags.writeable = False
    return q


def quotient_form(qmap: LinearMap, bV: HermitianForm) -> HermitianForm:
    """Form induced on the target of a surjection q, b_Q(qx, conj(qy)) = b_V(x, conj(y)).

    Representatives are taken in the b-orthogonal complement of Ker q;
    two representatives of the same class then differ by an element of
    Ker q intersected with Ker b_V, so the value is well defined.  The
    construction is re-run with a second, independently mixed lift and the
    two Gram matrices must agree to LIFT_AGREEMENT_TOL.
    """
    q = qmap.matrix
    dim_q, dim_v = q.shape
    if dim_v != bV.dim:
        raise ValueError("quotient map does not match the form's space")
    if rank_of(np.linalg.svd(q, compute_uv=False), bV.rank_tol) < dim_q:
        raise NotSurjective("quotient map does not have full row rank")

    ker_q = Subspace(dim_v, _nullspace(q, bV.rank_tol), rank_tol=bV.rank_tol)
    perp = orthogonal_complement(ker_q, bV).basis

    def compressed(lift_basis):
        qx = q @ lift_basis
        lift = lift_basis @ np.linalg.pinv(qx, rcond=bV.rank_tol)
        return hermitize(lift.conj().T @ bV.gram @ lift)

    gram_a = compressed(perp)
    gram_b = compressed(perp @ _mixing_unitary(perp.shape[1], 23))
    if np.linalg.norm(gram_a - gram_b) > LIFT_AGREEMENT_TOL * (1.0 + np.linalg.norm(gram_a)):
        raise HermitiaError("quotient form depends on the complement lift")
    return HermitianForm(gram_a, rank_tol=bV.rank_tol)


def _purged_map(f: LinearMap, pv: PurgeResult, pw: PurgeResult):
    """Map induced on purged spaces by an adjointable f."""
    cv = pv.quotient_map.matrix.conj().T
    return pw.quotient_map.matrix @ f.matrix @ cv


def hom_form(f: LinearMap, g: LinearMap, bV: HermitianForm, bW: HermitianForm) -> complex:
    """Induced pairing trace(adjoint(g_hat) @ f_hat) on purged spaces.

    Both maps must be adjointable; the pairing is Hermitian in (f, g).
    """
    if not admits_adjoint(f, bV, bW) or not admits_adjoint(g, bV, bW):
        raise NoAdjoint("hom_form needs both maps adjointable")
    pv = purge(bV)
    pw = purge(bW)
    fhat = _purged_map(f, pv, pw)
    ghat = _purged_map(g, pv, pw)
    ghat_dag = adjoint(
        LinearMap(ghat), pv.purged_form, pw.purged_form
    ).matrix
    return complex(np.trace(ghat_dag @ fhat))


def sum_quotient_form(b1: HermitianForm, b2: HermitianForm) -> HermitianForm:
    """The induced form of the two-summand construction.

    With h = b1 + b2 (required positive-definite),

        q(s, conj(t)) = b1(h^-1 b2 s, conj(h^-1 b2 t)) + b2(h^-1 b1 s, conj(h^-1 b1 t)).

    q is positive-semidefinite and kills both kernels.
    """
    if b1.dim != b2.dim:
        raise ValueError("forms must share a space")
    h = b1.gram + b2.gram
    tol = max(b1.rank_tol, b2.rank_tol)
    if not HermitianForm(h, rank_tol=tol).is_positive_definite():
        raise NotPositive("b1 + b2 is not positive-definite")
    m1 = np.linalg.solve(h, b1.gram)
    m2 = np.linalg.solve(h, b2.gram)
    gram = m2.conj().T @ b1.gram @ m2 + m1.conj().T @ b2.gram @ m1
    return HermitianForm(gram, rank_tol=tol)


def projection_limit_gram(b1: HermitianForm, b2: HermitianForm) -> np.ndarray:
    """Gram of b1 pulled back through the h0-orthogonal projection onto
    a complement of Ker b2, where h0 = b1 + b2.

    This is the closed-form target the scaled quotient family converges
    to; limit_form cross-checks against it, and callers can recompute it
    for an independent residual.
    """
    tol = max(b1.rank_tol, b2.rank_tol)
    h0 = b1.gram + b2.gram
    k2 = b2.kernel_basis
    j = _nullspace(k2.conj().T @ h0, tol)
    if j.shape[1] == 0:
        return np.zeros_like(h0)
    jdag = np.linalg.solve(j.conj().T @ h0 @ j, j.conj().T @ h0)
    p = j @ jdag
    return hermitize(p.conj().T @ b1.gram @ p)


def limit_form(b1: HermitianForm, b2: HermitianForm, lambda_grid):
    """Family q_lambda = sum_quotient_form(b1, e^lambda b2) and its limit.

    Simultaneous diagonalization against h0 = b1 + b2 gives eigenpairs
    (x_j, y_j = 1 - x_j); the family has coefficients
    e^lambda x y / (x + e^lambda y), whose limit is x_j when |y_j| >
    LIMIT_COEFF_CUT and 0 otherwise.  The limit is cross-checked against
    the projection form (j j_dag)^* b1, where j includes the h0-orthogonal
    complement of Ker b2 and j_dag is its h0-adjoint, to
    LIMIT_PROJECTION_TOL.

    Both forms must be positive-semidefinite with h0 positive-definite
    (then b1 + e^lambda b2 stays positive-definite for all lambda >= 0).
    """
    if b1.dim != b2.dim:
        raise ValueError("forms must share a space")
    tol = max(b1.rank_tol, b2.rank_tol)
    for name, b in (("b1", b1), ("b2", b2)):
        if not b.is_positive_semidefinite():
            raise NotPositive("%s is not positive-semidefinite" % name)
    h0 = b1.gram + b2.gram
    if not HermitianForm(h0, rank_tol=tol).is_positive_definite():
        raise NotPositive("b1 + b2 is not positive-definite")

    q_values = [
        sum_quotient_form(b1, b2.scaled(float(np.exp(lam)))) for lam in lambda_grid
    ]

    # h0 = L L^H reduces the pencil (b1, h0) to the Hermitian matrix
    # L^-1 b1 L^-H, whose eigenvectors u give h0 v = L u
    l = np.linalg.cholesky(h0)
    x, u = np.linalg.eigh(hermitize(np.linalg.solve(l, np.linalg.solve(l, b1.gram).conj().T)))
    y = 1.0 - x
    coeff = np.where(np.abs(y) > LIMIT_COEFF_CUT, x, 0.0)
    hv = l @ u
    gram_inf = hermitize(hv @ np.diag(coeff) @ hv.conj().T)
    q_inf = HermitianForm(gram_inf, rank_tol=tol)

    gram_check = projection_limit_gram(b1, b2)
    if np.linalg.norm(gram_check - gram_inf) > LIMIT_PROJECTION_TOL * (1.0 + np.linalg.norm(gram_inf)):
        raise HermitiaError("limit form disagrees with its projection formula")

    return q_values, q_inf


def equiv_mod_kernel(s, t, b: HermitianForm) -> bool:
    """True iff s - t lies in Ker b up to the relative tolerance
    KERNEL_EQUIV_TOL."""
    d = np.asarray(s, dtype=complex) - np.asarray(t, dtype=complex)
    k = b.kernel_basis
    resid = d - k @ (k.conj().T @ d)
    return bool(np.linalg.norm(resid) <= KERNEL_EQUIV_TOL * (1.0 + np.linalg.norm(d)))
