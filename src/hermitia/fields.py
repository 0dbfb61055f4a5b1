"""Constructors for chart fields.

Most model metrics here arise in one of two ways:

* as d dbar log ||w(z)||^2 for a holomorphic map w into C^N (projective
  potentials, minor embeddings, twisted fiber metrics), via
  :func:`from_potential_map`;
* as L(z)^H L(z) for a holomorphic matrix polynomial L, via
  :func:`from_factor` (the workhorse for seeded random instances, with
  degenerate constant-rank fields obtained from wide factors).

Both routes carry exact first and mixed second derivatives, so the
resulting fields run in analytic mode and self-check against finite
differences on construction.  The derivatives of every potential field,
here and in :func:`models.grassmannian_chart`, come from one pair of
routines, :func:`_logdet_order1` and :func:`_logdet_order2`: the
potential is log det(A A^H) for a holomorphic frame A, the one-row
A = w^T here.  Their Gram kernels stay separate routes, so the two
Grassmannian Grams remain independent.

Every field built here has one Gram kernel, a function of a (B, m) stack
of points whose row i depends on point i only (``ChartField``'s
``stack_fn``), and its analytic derivatives are kernels of the same kind
(``d_fn`` and ``dd_fn``); composite fields compose their parts' kernels,
and are analytic when all of their parts are.  The log-det jet reads a
whole stack in one pass of batched products, and the potential fields
keep it for the latest stack read, so the d and dd reads of the same
rows share its first-order part.
"""

import math

import numpy as np

from .charts import ChartField, HolomorphicMap, last_point_cache
from .errors import NonFinite
from .forms import conj_transpose, stacked_linalg


def _derivative(terms, j):
    """d/dz_j of a sum of monomials c z^e, as the same number of terms:
    (c e_j, e - 1_j), or (0, e) where e_j = 0."""
    out = []
    for c, exps in terms:
        if exps[j]:
            lower = list(exps)
            lower[j] -= 1
            out.append((c * exps[j], tuple(lower)))
        else:
            out.append((0j, exps))
    return out


class MonomialMap:
    """Holomorphic polynomial map C^m -> C^N given by monomial lists.

    ``components[i]`` is a list of (coefficient, exponent-tuple) pairs.
    The value, Jacobian and symmetric Hessian are exact, at a point (m,)
    or at each row of a (B, m) stack.  Each entry of each order is a sum
    of monomials (a derivative of c z^e is the monomial e_j c z^(e - 1_j)),
    so all of them are read from one table of coordinate powers through
    coefficient and exponent tables built on construction.
    """

    def __init__(self, m, components):
        self.m = int(m)
        self.components = [
            [(complex(c), tuple(int(e) for e in exps)) for c, exps in comp]
            for comp in components
        ]
        self.n = len(self.components)
        # the entries of the value, then of the Jacobian, then of the
        # Hessian, in row-major order, each a list of terms
        jac = [_derivative(comp, j) for comp in self.components for j in range(self.m)]
        hess = [_derivative(terms, k) for terms in jac for k in range(self.m)]
        entries = self.components + jac + hess
        width = max(len(terms) for terms in entries)
        top = max([1] + [max(e, default=0) for terms in entries for _, e in terms])
        self._powers = np.arange(top + 1, dtype=complex)
        coef = np.zeros((width, len(entries)), dtype=complex)
        index = np.zeros((width, len(entries), self.m), dtype=np.intp)
        offsets = np.arange(self.m) * (top + 1)
        for i, terms in enumerate(entries):
            for k, (c, exps) in enumerate(terms):
                coef[k, i] = c
                index[k, i] = offsets + exps
        # the tables of the entries of the orders up to 0, 1 and 2
        ends = np.cumsum([self.n * self.m**o for o in range(3)])
        self._tables = [(coef[:, :end].copy(), index[:, :end].copy()) for end in ends]

    def jet(self, z, order):
        """[value, Jacobian, Hessian][: order + 1] at a point (m,) or at
        each row of a (B, m) stack: shapes (..., N), (..., N, m) and
        (..., N, m, m), with jac[i, j] = d_j w_i."""
        z = np.asarray(z, dtype=complex)
        lead = z.shape[:-1]
        rows = z.reshape(-1, self.m)
        coef, index = self._tables[order]
        powers = (rows[:, :, None] ** self._powers).reshape(len(rows), -1)
        factors = powers[:, index]  # (B, terms, entries, m)
        mono = factors[..., 0]
        for j in range(1, self.m):
            mono = mono * factors[..., j]
        terms = coef * mono
        total = terms[:, 0]
        for k in range(1, terms.shape[1]):
            total = total + terms[:, k]
        out, start = [], 0
        for o in range(order + 1):
            size = self.n * self.m**o
            out.append(total[:, start:start + size].reshape(lead + (self.n,) + (self.m,) * o))
            start += size
        return out


def _potential_gram(w, jac):
    """The Gram matrix of d dbar log ||w||^2 at a (B, m) stack of points
    from w and its Jacobian, gram[j, k] = b(e_k, conj(e_j))."""
    f = np.real(w.conj()[..., None, :] @ w[..., :, None])[..., 0, 0]
    fa = np.einsum("...ia,...i->...a", jac, w.conj())
    fab = np.einsum("...ia,...ib->...ab", jac, jac.conj())
    # f**2 as the float power of each row, as a one-point oracle with f a
    # Python float takes it: an array square differs from it in the last
    # bit for about one f in 1500
    f2 = np.array([x**2 for x in f.tolist()])[:, None, None]
    t2 = fab / f[:, None, None] - np.einsum("na,nb->nab", fa, fa.conj()) / f2
    return t2.swapaxes(1, 2)


def _singular_frame(z):
    where = np.array2string(z, precision=3)
    return NonFinite("d dbar log det(A A^H) is not finite at %s: A A^H is singular there" % where)


def _logdet_order1(zs, a, da, dda):
    """The first-order part of the log-det jet at a (B, m) stack of points
    zs: (J, H, d) for a holomorphic frame A of shape (B, k, N) with
    derivatives dA (B, m, k, N) and ddA (B, m, m, k, N), or None where A
    is linear (a leading axis of length 1 is taken at every point); H
    flattened to (B, m m, k N) and d the first derivatives of the Gram
    field G of d dbar log det(A A^H).

    They are read in the normal gauge A' = (A(z) B)^-1 A(z) with
    B = A^H (A A^H)^-1 at each point: a holomorphic change of frame, which
    moves log det only by a pluriharmonic term, with every holomorphic
    derivative of A' A'^H zero at the point.  With A A^H = L L^H,
    Q = L^-1 A, the projector P = I - Q^H Q and K_a = L^-1 dA_a Q^H, the
    frame's derivatives there are J_a = L^-1 dA_a P and
    H_ag = L^-1 ddA_ag P - K_a J_g - K_g J_a, and with <X, Y> = tr(X Y^H)

        G[b, a]              = <J_a, J_b>
        d_g G[b, a]          = <H_ag, J_b>.

    Every product keeps the association of one point's, so row i equals
    the jet of point i alone bit for bit.  Where A A^H is singular,
    NonFinite names the first such point.
    """
    b, (m, k, n) = len(a), da.shape[1:]
    a = a[:, None]  # broadcast over the coordinate axis of dA
    l_inv = np.linalg.inv(stacked_linalg(np.linalg.cholesky, a @ conj_transpose(a), zs, _singular_frame))
    q = l_inv @ a
    qh = conj_transpose(q)
    dl = l_inv @ da
    kk = dl @ qh
    j = dl - kk @ q
    h = -(kk[:, :, None] @ j[:, None])
    h = h + h.swapaxes(1, 2)
    if dda is not None:
        e = l_inv[:, None] @ dda
        h = h + e - (e @ qh[:, None]) @ q[:, None]
    hf = h.reshape(b, m * m, k * n)
    d = (hf @ conj_transpose(j.reshape(b, m, k * n))).reshape(b, m, m, m)
    return j, hf, d.transpose(0, 2, 3, 1)


def _logdet_order2(j, hf):
    """The mixed second derivatives of the log-det Gram field from the J
    and flattened H of :func:`_logdet_order1`, at each row of their stack:
    with C_ab = J_a J_b^H,

        d_g dbar_d G[b, a] = <H_ag, H_bd> - tr(C_gd C_ab) - tr(C_ad C_gb).
    """
    b, m, k = j.shape[:3]
    hh = (hf @ conj_transpose(hf)).reshape(b, m, m, m, m)
    c = j[:, :, None] @ conj_transpose(j)[:, None, :]
    flat = c.reshape(b, m * m, k * k)
    cc = (flat @ c.swapaxes(-1, -2).reshape(b, m * m, k * k).swapaxes(-1, -2)).reshape(b, m, m, m, m)
    return hh.transpose(0, 2, 4, 3, 1) - cc.transpose(0, 1, 2, 4, 3) - cc.transpose(0, 3, 2, 4, 1)


def _logdet_derivatives(frame):
    """d_fn and dd_fn of the Gram field of d dbar log det(A A^H) for
    frame(zs) = (A, dA, ddA) at a (B, m) stack of points as
    :func:`_logdet_order1` takes them.  A d read builds only the
    first-order part; the first dd read of a stack adds the second-order
    products (:func:`_logdet_order2`) from it.  Both are kept for the
    latest stack read (:func:`charts.last_point_cache`), so a d read and
    a dd read of the same rows build the first-order part once."""
    first = last_point_cache(lambda zs: _logdet_order1(zs, *frame(zs)))
    second = last_point_cache(lambda zs: _logdet_order2(*first(zs)[:2]))
    return lambda zs: first(zs)[2], second


def from_potential_map(mono_map: MonomialMap, center=None, radius=1.0, name="", **kw):
    """Metric field of the potential log ||w(z)||^2 with exact derivatives:
    log det(A A^H) for the one-row frame A = w^T (:func:`_logdet_derivatives`)."""

    def stack_fn(zs):
        return _potential_gram(*mono_map.jet(zs, 1))

    def frame(zs):
        w, jac, hess = mono_map.jet(zs, 2)
        return w[:, None], jac.swapaxes(1, 2)[:, :, None], hess.transpose(0, 2, 3, 1)[:, :, :, None]

    d_fn, dd_fn = _logdet_derivatives(frame)
    return ChartField(
        mono_map.m,
        mono_map.m,
        stack_fn,
        center=center,
        radius=radius,
        d_fn=d_fn,
        dd_fn=dd_fn,
        name=name,
        **kw,
    )


class MatrixPolynomial:
    """L(z) = C0 + sum_a z_a C1[a], all p x r."""

    def __init__(self, c0, c1):
        self.c0 = np.asarray(c0, dtype=complex)
        self.c1 = np.asarray(c1, dtype=complex)
        self.m = len(self.c1)
        self.shape = self.c0.shape
        # c1 as an (m, p * r) matrix: one dot product per read, equal to
        # tensordot(z, c1, axes=1) bit for bit
        self._c1_flat = self.c1.reshape(self.m, -1)

    def value(self, z):
        """L at a point (m,), or at each row of a (B, m) stack, shape
        (B, p, r).  Each row is one product with ``c1`` as at a point,
        because a stacked product differs from it in the last bit and
        depends on the other rows; a one-row stack is the point read."""
        z = np.asarray(z, dtype=complex)
        if z.ndim == 1:
            return self.c0 + np.dot(z, self._c1_flat).reshape(self.shape)
        if len(z) == 1:
            return self.c0 + np.dot(z[0], self._c1_flat).reshape((1,) + self.shape)
        lin = np.empty((len(z), self._c1_flat.shape[1]), dtype=complex)
        for w, row in zip(z, lin):
            np.dot(w, self._c1_flat, out=row)
        return self.c0 + lin.reshape((len(z),) + self.shape)

    def d(self, z):
        """All holomorphic derivatives, shape (m, p, r)."""
        return self.c1.copy()


def from_factor(poly: MatrixPolynomial, m, center=None, radius=1.0, name=""):
    """The positive-semidefinite field G = L^H L for a holomorphic factor L.

    First and mixed second derivatives are exact:
    d_a G = L^H d_a L and d_a dbar_b G = (d_b L)^H (d_a L), the latter
    the same at every point.  The field is admissible with constant rank
    equal to rank L.
    """
    dl = np.ascontiguousarray(poly.c1)
    dd = conj_transpose(dl)[None, :] @ dl[:, None]

    def stack_fn(zs):
        l = poly.value(zs)
        return conj_transpose(l) @ l

    def d_fn(zs):
        return conj_transpose(poly.value(zs))[:, None] @ dl

    def dd_fn(zs):
        return dd[None].repeat(len(zs), axis=0)

    return ChartField(
        m,
        poly.shape[1],
        stack_fn,
        center=center,
        radius=radius,
        d_fn=d_fn,
        dd_fn=dd_fn,
        name=name,
    )


def constant_field(gram, m, center=None, radius=1.0, name=""):
    gram = np.asarray(gram, dtype=complex)
    r = gram.shape[0]

    def zeros_d(zs):
        return np.zeros((len(zs), m, r, r), dtype=complex)

    def zeros_dd(zs):
        return np.zeros((len(zs), m, m, r, r), dtype=complex)

    return ChartField(
        m,
        r,
        lambda zs: np.broadcast_to(gram, (len(zs), r, r)),
        center=center,
        radius=radius,
        d_fn=zeros_d,
        dd_fn=zeros_dd,
        name=name,
        self_check=False,
    )


def scaled_field(field: ChartField, c, name=""):
    """Constant real multiple c G of a field on the same chart."""
    c = float(c)

    d_fn = dd_fn = None
    if field.analytic:
        def d_fn(zs):
            return c * field.d_stack(zs)

        def dd_fn(zs):
            return c * field.dd_stack(zs)

    return ChartField(
        field.m,
        field.shape,
        lambda zs: c * field.gram_stack(zs),
        center=field.center,
        radius=field.radius,
        d_fn=d_fn,
        dd_fn=dd_fn,
        name=name or field.name,
        self_check=False,
    )


def sum_field(f1: ChartField, f2: ChartField, c1=1.0, c2=1.0, name=""):
    """Pointwise combination c1 G1 + c2 G2 on the common chart."""
    if f1.m != f2.m or f1.shape != f2.shape:
        raise ValueError("fields are not compatible")
    radius = np.minimum(f1.radius, f2.radius)

    def stack_fn(zs):
        return c1 * f1.gram_stack(zs) + c2 * f2.gram_stack(zs)

    d_fn = dd_fn = None
    if f1.analytic and f2.analytic:
        def d_fn(zs):
            return c1 * f1.d_stack(zs) + c2 * f2.d_stack(zs)

        def dd_fn(zs):
            return c1 * f1.dd_stack(zs) + c2 * f2.dd_stack(zs)

    return ChartField(
        f1.m,
        f1.shape,
        stack_fn,
        center=f1.center,
        radius=radius,
        d_fn=d_fn,
        dd_fn=dd_fn,
        name=name,
        self_check=False,
    )


def embedded_factor_field(factor: ChartField, total_m, offset, radius, name=""):
    """Zero-pad a tangent-bundle factor field into a product chart.

    The factor's chart coordinates (and bundle indices) occupy the slots
    offset .. offset + factor.m in the product; all other rows, columns,
    and derivative directions are zero.
    """
    mf = factor.m
    sl = slice(offset, offset + mf)

    def stack_fn(zs):
        out = np.zeros((len(zs), total_m, total_m), dtype=complex)
        out[:, sl, sl] = factor.gram_stack(zs[:, sl])
        return out

    d_fn = dd_fn = None
    if factor.analytic:
        def d_fn(zs):
            out = np.zeros((len(zs), total_m, total_m, total_m), dtype=complex)
            out[:, sl, sl, sl] = factor.d_stack(zs[:, sl])
            return out

        def dd_fn(zs):
            out = np.zeros((len(zs), total_m, total_m, total_m, total_m), dtype=complex)
            out[:, sl, sl, sl, sl] = factor.dd_stack(zs[:, sl])
            return out

    return ChartField(
        total_m,
        total_m,
        stack_fn,
        center=np.zeros(total_m, dtype=complex),
        radius=radius,
        d_fn=d_fn,
        dd_fn=dd_fn,
        name=name,
        self_check=False,
    )


def pullback_field(field: ChartField, map_obj: HolomorphicMap, center, radius, name=""):
    """The field z -> G(f(z)) over the source chart of a holomorphic map.

    Derivatives follow the chain rule; since f is holomorphic no Hessian
    of f enters the mixed second derivative.
    """
    m = map_obj.m_in

    def stack_fn(zs):
        return field.gram_stack(np.stack([map_obj(z) for z in zs]))

    d_fn = dd_fn = None
    if field.analytic:
        def d_fn(zs):
            jac = np.stack([map_obj.jacobian(z) for z in zs])
            damb = field.d_stack(np.stack([map_obj(z) for z in zs]))
            return np.einsum("nirs,nij->njrs", damb, jac)

        def dd_fn(zs):
            jac = np.stack([map_obj.jacobian(z) for z in zs])
            ddamb = field.dd_stack(np.stack([map_obj(z) for z in zs]))
            return np.einsum("nilrs,nij,nlk->njkrs", ddamb, jac, jac.conj())

    return ChartField(
        m,
        field.shape,
        stack_fn,
        center=center,
        radius=radius,
        d_fn=d_fn,
        dd_fn=dd_fn,
        name=name,
        self_check=False,
    )


def fs_monomials(n):
    """Monomial data of the standard projective potential map (1, z_1 .. z_n)."""
    comps = [[(1.0, (0,) * n)]]
    for i in range(n):
        e = [0] * n
        e[i] = 1
        comps.append([(1.0, tuple(e))])
    return MonomialMap(n, comps)


def twisted_fiber_monomials(k):
    """Monomials of log(1 + (1+|z|^2)^k |w|^2) on a (z, w) bidisc.

    (1+|z|^2)^k |w|^2 expands as sum_j C(k,j) |z^j w|^2, so the potential
    is log of the squared norm of the map (1, sqrt(C(k,j)) z^j w).
    """
    comps = [[(1.0, (0, 0))]]
    for j in range(k + 1):
        comps.append([(math.sqrt(math.comb(k, j)), (j, 1))])
    return MonomialMap(2, comps)
