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
differences on construction.
"""

import math

import numpy as np

from .charts import ChartField, HolomorphicMap


class MonomialMap:
    """Holomorphic polynomial map C^m -> C^N given by monomial lists.

    ``components[i]`` is a list of (coefficient, exponent-tuple) pairs;
    value, Jacobian, and symmetric Hessian are evaluated exactly.
    """

    def __init__(self, m, components):
        self.m = int(m)
        self.components = [
            [(complex(c), tuple(int(e) for e in exps)) for c, exps in comp]
            for comp in components
        ]
        self.n = len(self.components)

    def _mono(self, z, exps):
        out = 1.0 + 0.0j
        for zi, e in zip(z, exps):
            if e:
                out *= zi**e
        return out

    def value(self, z):
        out = np.zeros(self.n, dtype=complex)
        for i, comp in enumerate(self.components):
            out[i] = sum(c * self._mono(z, e) for c, e in comp)
        return out

    def jac(self, z):
        out = np.zeros((self.n, self.m), dtype=complex)
        for i, comp in enumerate(self.components):
            for c, exps in comp:
                for j, ej in enumerate(exps):
                    if ej:
                        de = list(exps)
                        de[j] -= 1
                        out[i, j] += c * ej * self._mono(z, de)
        return out

    def hess(self, z):
        out = np.zeros((self.n, self.m, self.m), dtype=complex)
        for i, comp in enumerate(self.components):
            for c, exps in comp:
                for j, ej in enumerate(exps):
                    if not ej:
                        continue
                    for k, ek in enumerate(exps):
                        if j == k:
                            if ej >= 2:
                                de = list(exps)
                                de[j] -= 2
                                out[i, j, j] += c * ej * (ej - 1) * self._mono(z, de)
                        elif ek:
                            de = list(exps)
                            de[j] -= 1
                            de[k] -= 1
                            out[i, j, k] += c * ej * ek * self._mono(z, de)
        return out


# The Gram matrix of d dbar log ||w||^2 and its derivatives, at one point,
# as contractions of w, its Jacobian J and its Hessian H.  Each function
# computes only the order it returns: the Gram matrix needs no Hessian.
# Arrays follow the package index convention gram[j, k] = b(e_k, conj(e_j)).


def _potential_moments(w, jac):
    f = float(np.real(np.vdot(w, w)))
    fa = np.einsum("ia,i->a", jac, w.conj())
    fab = np.einsum("ia,ib->ab", jac, jac.conj())
    return f, fa, fab


def _potential_gram(w, jac):
    f, fa, fab = _potential_moments(w, jac)
    t2 = fab / f - np.einsum("a,b->ab", fa, fa.conj()) / f**2
    return t2.T


def _potential_d(w, jac, hess):
    f, fa, fab = _potential_moments(w, jac)
    cfa = fa.conj()
    faa = np.einsum("iag,i->ag", hess, w.conj())
    faab = np.einsum("iag,ib->agb", hess, jac.conj())
    t3 = (
        faab / f
        - (
            np.einsum("ab,g->agb", fab, fa)
            + np.einsum("ag,b->agb", faa, cfa)
            + np.einsum("a,gb->agb", fa, fab)
        )
        / f**2
        + 2.0 * np.einsum("a,b,g->agb", fa, cfa, fa) / f**3
    )
    return t3.transpose(1, 2, 0)


def _potential_dd(w, jac, hess):
    f, fa, fab = _potential_moments(w, jac)
    cfa = fa.conj()
    faa = np.einsum("iag,i->ag", hess, w.conj())
    faab = np.einsum("iag,ib->agb", hess, jac.conj())
    fabd = np.einsum("ia,ibd->abd", jac, hess.conj())
    faabb = np.einsum("iag,ibd->agbd", hess, hess.conj())
    t4 = (
        faabb / f
        - (
            np.einsum("agb,d->agbd", faab, cfa)
            + np.einsum("abd,g->agbd", fabd, fa)
            + np.einsum("agd,b->agbd", faab, cfa)
            + np.einsum("gbd,a->agbd", fabd, fa)
        )
        / f**2
        - (
            np.einsum("ab,gd->agbd", fab, fab)
            + np.einsum("ag,bd->agbd", faa, faa.conj())
            + np.einsum("ad,gb->agbd", fab, fab)
        )
        / f**2
        + 2.0
        * (
            np.einsum("ab,g,d->agbd", fab, fa, cfa)
            + np.einsum("ag,b,d->agbd", faa, cfa, cfa)
            + np.einsum("ad,b,g->agbd", fab, cfa, fa)
            + np.einsum("gb,a,d->agbd", fab, fa, cfa)
            + np.einsum("gd,a,b->agbd", fab, fa, cfa)
            + np.einsum("bd,a,g->agbd", faa.conj(), fa, fa)
        )
        / f**3
        - 6.0 * np.einsum("a,b,g,d->agbd", fa, cfa, fa, cfa) / f**4
    )
    return t4.transpose(1, 3, 2, 0)


def from_potential_map(mono_map: MonomialMap, center=None, radius=1.0, name="", **kw):
    """Metric field of the potential log ||w(z)||^2 with exact derivatives."""

    def eval_fn(z):
        return _potential_gram(mono_map.value(z), mono_map.jac(z))

    def d_fn(z):
        return _potential_d(mono_map.value(z), mono_map.jac(z), mono_map.hess(z))

    def dd_fn(z):
        return _potential_dd(mono_map.value(z), mono_map.jac(z), mono_map.hess(z))

    return ChartField(
        mono_map.m,
        mono_map.m,
        eval_fn,
        center=center,
        radius=radius,
        d_fn=d_fn,
        dd_fn=dd_fn,
        name=name,
        **kw,
    )


class MatrixPolynomial:
    """L(z) = C0 + sum_a z_a C1[a] + sum_{a,b} z_a z_b C2[a,b], all p x r."""

    def __init__(self, c0, c1=None, c2=None):
        self.c0 = np.asarray(c0, dtype=complex)
        p, r = self.c0.shape
        self.m = 0 if c1 is None else len(c1)
        self.c1 = None if c1 is None else np.asarray(c1, dtype=complex)
        self.c2 = None if c2 is None else np.asarray(c2, dtype=complex)
        self.shape = (p, r)
        # c1 as an (m, p * r) matrix: one dot product per read, equal to
        # tensordot(z, c1, axes=1) bit for bit
        self._c1_flat = None if c1 is None else self.c1.reshape(self.m, p * r)

    def value(self, z):
        out = self.c0.copy()
        if self.c1 is not None:
            out = out + np.dot(z, self._c1_flat).reshape(self.shape)
        if self.c2 is not None:
            out = out + np.einsum("a,b,abpr->pr", z, z, self.c2)
        return out

    def d(self, z):
        """All holomorphic derivatives, shape (m, p, r)."""
        m = len(z)
        out = np.zeros((m,) + self.shape, dtype=complex)
        if self.c1 is not None:
            out += self.c1
        if self.c2 is not None:
            out += np.einsum("b,abpr->apr", z, self.c2 + self.c2.transpose(1, 0, 2, 3))
        return out


def from_factor(poly: MatrixPolynomial, m, center=None, radius=1.0, name=""):
    """The positive-semidefinite field G = L^H L for a holomorphic factor L.

    First and mixed second derivatives are exact:
    d_a G = L^H d_a L and d_a dbar_b G = (d_b L)^H (d_a L).
    The field is admissible with constant rank equal to rank L.
    """

    def eval_fn(z):
        l = poly.value(z)
        return l.conj().T @ l

    def d_fn(z):
        l = poly.value(z)
        dl = poly.d(z)
        return np.stack([l.conj().T @ dl[a] for a in range(m)])

    def dd_fn(z):
        dl = poly.d(z)
        out = np.empty((m, m, poly.shape[1], poly.shape[1]), dtype=complex)
        for a in range(m):
            for b in range(m):
                out[a, b] = dl[b].conj().T @ dl[a]
        return out

    return ChartField(
        m,
        poly.shape[1],
        eval_fn,
        center=center,
        radius=radius,
        d_fn=d_fn,
        dd_fn=dd_fn,
        name=name,
    )


def constant_field(gram, m, center=None, radius=1.0, name=""):
    gram = np.asarray(gram, dtype=complex)
    r = gram.shape[0]

    def zeros_d(z):
        return np.zeros((m, r, r), dtype=complex)

    def zeros_dd(z):
        return np.zeros((m, m, r, r), dtype=complex)

    return ChartField(
        m,
        r,
        lambda z: gram,
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

    d_fn = (lambda z: c * field.d(z)) if field.analytic else None
    dd_fn = (lambda z: c * field.dd(z)) if field.dd_fn is not None else None
    return ChartField(
        field.m,
        field.shape,
        lambda z: c * field.gram(z),
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
    analytic = f1.analytic and f2.analytic

    def eval_fn(z):
        return c1 * f1.gram(z) + c2 * f2.gram(z)

    d_fn = (lambda z: c1 * f1.d(z) + c2 * f2.d(z)) if analytic else None
    dd_fn = (
        (lambda z: c1 * f1.dd(z) + c2 * f2.dd(z))
        if (f1.dd_fn is not None and f2.dd_fn is not None)
        else None
    )
    return ChartField(
        f1.m,
        f1.shape,
        eval_fn,
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

    def eval_fn(z):
        out = np.zeros((total_m, total_m), dtype=complex)
        out[sl, sl] = factor.gram(z[sl])
        return out

    def d_fn(z):
        out = np.zeros((total_m, total_m, total_m), dtype=complex)
        out[sl, sl, sl] = factor.d(z[sl])
        return out

    def dd_fn(z):
        out = np.zeros((total_m, total_m, total_m, total_m), dtype=complex)
        out[sl, sl, sl, sl] = factor.dd(z[sl])
        return out

    analytic = factor.analytic
    return ChartField(
        total_m,
        total_m,
        eval_fn,
        center=np.zeros(total_m, dtype=complex),
        radius=radius,
        d_fn=d_fn if analytic else None,
        dd_fn=dd_fn if (factor.dd_fn is not None) else None,
        name=name,
        self_check=False,
    )


def pullback_field(field: ChartField, map_obj: HolomorphicMap, center, radius, name=""):
    """The field z -> G(f(z)) over the source chart of a holomorphic map.

    Derivatives follow the chain rule; since f is holomorphic no Hessian
    of f enters the mixed second derivative.
    """
    m = map_obj.m_in

    def eval_fn(z):
        return field.gram(map_obj(z))

    d_fn = None
    dd_fn = None
    if field.analytic:
        def d_fn(z):
            jac = map_obj.jacobian(z)
            damb = field.d(map_obj(z))
            return np.einsum("irs,ij->jrs", damb, jac)

        if field.dd_fn is not None:
            def dd_fn(z):
                jac = map_obj.jacobian(z)
                ddamb = field.dd(map_obj(z))
                return np.einsum("ilrs,ij,lk->jkrs", ddamb, jac, jac.conj())

    return ChartField(
        m,
        field.shape,
        eval_fn,
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
