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

A :class:`FormStack` is the one place where Hermitian Gram matrices are
factorized: it holds the forms of a stack of points as arrays, and one
cached batched ``eigh`` decides each row's rank, positivity, kernel,
range and pseudoinverse, so :func:`kernel`, :func:`purge` and
:func:`adjoint` can never disagree about where the kernel lies.  A
:class:`HermitianForm` is a view of one row of a stack: one built from
its own Gram matrix is the row of a one-row stack, built at its first
factorization, and :meth:`FormStack.form` is row i of a stack that has
read many.  :func:`adjoint_stack` takes the adjoints between two stacks,
each row by the arithmetic of :func:`adjoint`.  The SVD null space
:func:`_nullspace` serves only matrices that are not Hermitian forms
(quotient maps and products such as S^H G).  The constant-rank gate of
:mod:`hermitia.charts` ranks whole stencils by one batched ``eigvalsh``
(:func:`gram_ranks`) and factorizes nothing.
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


def require_finite_rows(values, what, points):
    """Raise NonFinite naming ``what`` and the first of the points
    ``points`` whose row of ``values`` (shape (B, ...)) holds a NaN or an
    inf."""
    if not np.isfinite(values).all():
        finite = np.isfinite(values).all(axis=tuple(range(1, values.ndim)))
        raise _non_finite(what, points[int(np.argmin(finite))])


def stacked_linalg(fn, x, points, error):
    """``fn`` (a ``numpy.linalg`` routine) of the matrices ``x`` read at a
    (B, m) stack of points, x[i] at points[i], in one call.  Where that
    call raises LinAlgError, each x[i] is retried alone and
    ``error(points[i])`` is raised for the first one whose own call
    raises."""
    try:
        return fn(x)
    except np.linalg.LinAlgError:
        for xi, point in zip(x, points):
            try:
                fn(xi)
            except np.linalg.LinAlgError:
                raise error(point) from None
        raise


def rank_of(values, rank_tol, what="spectrum", point=None):
    """The one rank rule: how many of ``values`` (singular values or
    eigenvalue moduli, in any order) lie above ``rank_tol`` times the
    largest.  The zero matrix has rank 0."""
    values = np.asarray(values)
    top = values.max(initial=0.0)
    if not math.isfinite(top):
        raise _non_finite(what, point)
    return int(np.count_nonzero(values > rank_tol * top))


def gram_rank(g, rank_tol, what="Gram matrix", point=None):
    """Rank of a Hermitian matrix from the moduli of its eigenvalues; a
    NaN or inf in g raises NonFinite.  ``eigvalsh`` fails on most such
    matrices, but returns a finite spectrum for some with a NaN on the
    diagonal, which the trace (the sum of the eigenvalues) exposes."""
    try:
        w = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError:
        w = None
    if w is None or not cmath.isfinite(g.trace()):
        raise _non_finite(what, point)
    return rank_of(np.abs(w), rank_tol, what, point)


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
    ranks = (moduli > rank_tol * top[:, None]).sum(axis=-1)
    finite = np.isfinite(top) & np.isfinite(grams.trace(axis1=-2, axis2=-1))
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
    """A Hermitian form given by its Gram matrix in a fixed frame: a view
    of one row of a :class:`FormStack`, which factorizes it.

    The matrix is Hermitian-averaged on construction to absorb
    floating-point asymmetry, and the form's stack is the one-row stack
    of it, built at the first factorization, so a NaN or inf raises
    NonFinite then; ``gram`` and ``pinv`` are read-only.  A row of a
    stack read as a form (:meth:`FormStack.form`) is a view of that row.
    """

    def __init__(self, gram, rank_tol=DEFAULT_RANK_TOL):
        gram = np.asarray(gram, dtype=complex)
        if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("gram must be a square matrix")
        self.gram = hermitize(gram)
        self.gram.flags.writeable = False
        self.rank_tol = float(rank_tol)

    @cached_property
    def _row(self):
        """(stack, i): the row of a :class:`FormStack` that factorizes
        the form."""
        return FormStack(self.gram[None], (None,), self.rank_tol), 0

    @property
    def dim(self):
        return self.gram.shape[0]

    @property
    def rank(self):
        stack, i = self._row
        return int(stack.rank[i])

    @property
    def kernel_dim(self):
        return self.dim - self.rank

    @property
    def pinv(self):
        """Pseudoinverse, equal bit for bit to ``np.linalg.pinv(gram,
        rcond=rank_tol, hermitian=True)``."""
        stack, i = self._row
        return stack.pinv[i]

    @property
    def kernel_basis(self):
        """Orthonormal columns spanning Ker b: the eigenvectors whose
        eigenvalues the rank rule discards."""
        stack, i = self._row
        return stack.kernel_basis(i)

    @property
    def range_basis(self):
        """Orthonormal columns spanning the range of the Gram matrix: the
        eigenvectors the rank rule keeps, largest modulus first."""
        stack, i = self._row
        return stack.range_basis(i)

    def value(self, s, t):
        """b(s, conj(t)) for coordinate columns s and t."""
        s = np.asarray(s, dtype=complex)
        t = np.asarray(t, dtype=complex)
        return complex(t.conj() @ self.gram @ s)

    def scaled(self, c):
        return HermitianForm(c * self.gram, rank_tol=self.rank_tol)

    def is_positive_definite(self):
        w = self._spectrum
        return bool(w[0] > self.rank_tol * max(abs(w[-1]), 1e-300))

    def is_positive_semidefinite(self):
        w = self._spectrum
        scale = max(abs(w[0]), abs(w[-1]), 1.0)
        return bool(w[0] > -PSD_SLACK * self.rank_tol * scale)

    @property
    def _spectrum(self):
        """The eigenvalues, ascending."""
        stack, i = self._row
        return stack._eigh[0][i]

    def __repr__(self):
        return "HermitianForm(dim=%d, rank=%d)" % (self.dim, self.rank)


class _StackRow(HermitianForm):
    """Row i of a :class:`FormStack` as a form.  The row is
    Hermitian-averaged already, so the form takes it as its ``gram`` (a
    read-only view) without averaging it again."""

    def __init__(self, stack, i):
        self.gram = stack.gram[i]
        self.gram.flags.writeable = False
        self.rank_tol = stack.rank_tol
        self._stack, self._i = stack, i

    @property
    def _row(self):
        return self._stack, self._i


@lru_cache(maxsize=64)
def _row_starts(b, n):
    """Flat offsets of the rows of a (b, n) stack, shape (b, 1), and of
    the rows of a (b, n, n) stack, shape (b, n, 1): added to each row's
    order of its n entries, they index a whole stack in one ``take``."""
    return n * np.arange(b)[:, None], n * np.arange(b * n).reshape(b, n, 1)


class FormStack:
    """The forms of a (B, n, n) stack of Hermitian Gram matrices read at
    the B chart points ``points``, as arrays: ``gram``, then from one
    batched ``eigh(conj(gram))``, run on first read, each row's ``rank``,
    ``pinv``, ``kernel_basis(i)`` and ``range_basis(i)``.  ``form(i)`` is
    row i as a :class:`HermitianForm`.  A NaN or inf raises NonFinite
    naming the first point where it is read, on construction; so does a
    row whose ``eigh`` fails.  The rows are taken as they are:
    Hermitian-averaged reads, which a form's own averaging leaves
    unchanged bit for bit."""

    def __init__(self, grams, points, rank_tol):
        require_finite_rows(grams, "Gram matrix", points)
        self.gram = grams
        self.points = points
        self.rank_tol = float(rank_tol)

    @property
    def dim(self):
        return self.gram.shape[-1]

    @cached_property
    def _eigh(self):
        """Each row's eigenvalues of conj(gram), ascending, and their
        eigenvectors as columns."""
        return stacked_linalg(
            np.linalg.eigh, np.conj(self.gram), self.points, lambda p: _non_finite("Gram matrix", p)
        )

    @cached_property
    def _by_modulus(self):
        """Each row's eigenvalue moduli (descending), which of them the
        rank rule keeps (those above ``rank_tol`` times the largest),
        their eigenvectors of conj(gram) as columns and their signs, in
        the order of numpy's Hermitian SVD.  The eigenpairs of all rows
        are gathered in that order by one flat ``take`` each."""
        w, u = self._eigh
        order = np.argsort(np.abs(w), axis=-1)[:, ::-1]
        starts_w, starts_u = _row_starts(*w.shape)
        w = w.take(order + starts_w)
        s = np.abs(w)
        kept = s > self.rank_tol * s[:, :1]
        return s, kept, u.take(order[:, None, :] + starts_u), np.copysign(1.0, w)

    @cached_property
    def rank(self):
        return self._by_modulus[1].sum(axis=-1)

    @cached_property
    def pinv(self):
        """Each row's pseudoinverse, equal bit for bit to
        ``np.linalg.pinv(gram[i], rcond=rank_tol, hermitian=True)``, whose
        steps it repeats."""
        s, kept, u, sgn = self._by_modulus
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
        gp = np.conj(u * sgn[:, None, :]) @ (inv[:, :, None] * u.swapaxes(-1, -2))
        gp.flags.writeable = False
        return gp

    def kernel_basis(self, i):
        """Orthonormal columns spanning the kernel of row i."""
        return np.conj(self._by_modulus[2][i][:, self.rank[i]:])

    def range_basis(self, i):
        """Orthonormal columns spanning the range of row i, largest
        eigenvalue modulus first."""
        return np.conj(self._by_modulus[2][i][:, :self.rank[i]])

    def kept_spectrum(self, i):
        """The signed eigenvalues of row i that the rank rule keeps,
        largest modulus first."""
        s, _, _, sgn = self._by_modulus
        return (sgn[i] * s[i])[:self.rank[i]]

    def form(self, i):
        """Row i as a :class:`HermitianForm`, factorized by the stack."""
        return _StackRow(self, i)


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
    stack, i = b._row
    purged = HermitianForm(np.diag(stack.kept_spectrum(i)), rank_tol=b.rank_tol)
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
    bV to row i of bW (the stacks may hold more rows: their leading B are
    taken), and each result equals ``adjoint`` of it bit for bit.  Raises
    NoAdjoint at the first row, and the first matrix of it, that admits
    none."""
    rank_tol, b = max(bV.rank_tol, bW.rank_tol), len(f)
    for i in np.flatnonzero(bV.rank[:b] < bV.dim):
        kv, kw = bV.kernel_basis(i), bW.kernel_basis(i)
        for fi in f[i].reshape((-1,) + f.shape[-2:]):
            if not _maps_kernel(fi, kv, kw, rank_tol):
                raise NoAdjoint("f does not map Ker b_V into Ker b_W")
    lead = (slice(None),) + (None,) * (f.ndim - 3)
    return bV.pinv[:b][lead] @ conj_transpose(f) @ bW.gram[:b][lead]


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
    to; limit_form cross-checks against it and returns the residual.
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
    complement of Ker b2 and j_dag is its h0-adjoint: their gap relative
    to 1 + ||q_inf|| is returned as the third value, and must not exceed
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
    q_inf = HermitianForm(hv @ np.diag(coeff) @ hv.conj().T, rank_tol=tol)

    gap = np.linalg.norm(projection_limit_gram(b1, b2) - q_inf.gram)
    residual = float(gap) / (1.0 + float(np.linalg.norm(q_inf.gram)))
    if residual > LIMIT_PROJECTION_TOL:
        raise HermitiaError("limit form disagrees with its projection formula")

    return q_values, q_inf, residual


def equiv_mod_kernel(s, t, b: HermitianForm) -> bool:
    """True iff s - t lies in Ker b up to the relative tolerance
    KERNEL_EQUIV_TOL."""
    d = np.asarray(s, dtype=complex) - np.asarray(t, dtype=complex)
    k = b.kernel_basis
    resid = d - k @ (k.conj().T @ d)
    return bool(np.linalg.norm(resid) <= KERNEL_EQUIV_TOL * (1.0 + np.linalg.norm(d)))
