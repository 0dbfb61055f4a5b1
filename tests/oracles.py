"""Per-point oracles of the package's stacked routines, for the tests only.

Each computes one point, or one direction, at a time, the way the
package once did, so a test can hold the stacked route to it bit for bit.
"""

from collections import namedtuple
from functools import cached_property

import numpy as np

from hermitia.charts import (
    _FORM_GUARD,
    RANK_TOL,
    SOLVER_TOL,
    FieldAt,
    _as_point,
    _kernel_perturbation,
    _solver_residual,
    curvature_tensor,
    hsc_of_tensor,
    ring_fd,
)
from hermitia.errors import HermitiaError, RankJump
from hermitia.forms import (
    PSD_SLACK,
    LinearMap,
    adjoint,
    conj_transpose,
    gram_rank,
    rank_of,
    require_finite,
)
from hermitia.fields import MonomialMap, from_potential_map
from hermitia.models import (
    GRADIENT_FLOOR,
    _hsc_gradient,
    _parse_fs_token,
    _sample_polydisc,
    _unit_directions,
    fubini_study_chart,
)

FormFactors = namedtuple(
    "FormFactors",
    "rank pinv kernel_basis range_basis kept_spectrum positive_definite positive_semidefinite",
)


def form_factors(gram, rank_tol):
    """One Hermitian Gram matrix factorized on its own, step by step: one
    2-D ``eigh(conj(gram))``, the eigenpairs sorted by modulus by
    ``argsort`` (the order of numpy's Hermitian SVD), the rank rule, 1/s
    on the kept part and the product conj(u sgn) @ (inv u^T).  The
    per-matrix oracle of the rows of ``forms.FormStack``: its rank, pinv,
    kernel and range bases, the signed eigenvalues ``purge`` keeps, and
    positive (semi)definiteness from the ascending spectrum."""
    w, u = np.linalg.eigh(np.conj(gram))
    order = np.argsort(np.abs(w))[::-1]
    s, u, sgn = np.abs(w)[order], u[:, order], np.copysign(1.0, w)[order]
    r = rank_of(s, rank_tol)
    inv = np.zeros_like(s)
    inv[:r] = 1.0 / s[:r]
    return FormFactors(
        rank=r,
        pinv=np.conj(u * sgn) @ (inv[:, None] * u.T),
        kernel_basis=np.conj(u[:, r:]),
        range_basis=np.conj(u[:, :r]),
        kept_spectrum=(sgn * s)[:r],
        positive_definite=bool(w[0] > rank_tol * max(abs(w[-1]), 1e-300)),
        positive_semidefinite=bool(w[0] > -PSD_SLACK * rank_tol * max(abs(w[0]), abs(w[-1]), 1.0)),
    )


def is_pd(gram, floor):
    """Whether one Hermitian matrix is positive-definite by its own
    ``eigvalsh``: its lowest eigenvalue exceeds ``floor`` times
    max(|largest eigenvalue|, 1).  The per-matrix oracle of
    ``fibration._pd_rows``."""
    w = np.linalg.eigvalsh(gram)
    return bool(w[0] > floor * max(abs(w[-1]), 1.0))


def wirtinger_fd(fn, z, a, step, conjugate=False):
    """Central Wirtinger difference of an array-valued ``fn`` along z_a:
    d_a (or dbar_a when ``conjugate``) from four reads at z +- step e_a
    and z +- i step e_a.  It builds its points and combines its reads on
    its own: the per-direction oracle of ``charts.ring_fd``."""
    e = np.zeros(len(z), dtype=complex)
    e[a] = 1.0
    h = step
    fp, fm, fip, fim = (fn(w) for w in (z + h * e, z - h * e, z + 1j * h * e, z - 1j * h * e))
    if conjugate:
        return (fp - fm + 1j * fip - 1j * fim) / (4.0 * h)
    return (fp - fm - 1j * fip + 1j * fim) / (4.0 * h)


def outer_dd(field, z):
    """d_a dbar_b G at one point by ``ring_fd`` over the one-point reads
    of dbar_b G = (d_b G)^H at the 4m outer stencil points: the per-point
    oracle of ``ChartField._dd_ring``."""
    return ring_fd(lambda w: conj_transpose(field.d(w)), z, field.fd_outer_step)


def grassmann_gram(z, k, n):
    """kron(P, Q^T) with P = (I + Z Z*)^-1 and Q = (I + Z* Z)^-1 at one
    point by np.kron: the per-point oracle of the Grassmannian kernel
    ``models._grassmann_gram_stack``."""
    zm = z.reshape(k, n - k)
    p = np.linalg.inv(np.eye(k) + zm @ zm.conj().T)
    q = np.linalg.inv(np.eye(n - k) + zm.conj().T @ zm)
    return np.kron(p, q.T)


def fiber_field(model_id, zb):
    """The fiber metric of a registered fibration over the base point zb,
    a field of the fiber coordinates alone built for that point: for
    "hirz:k" the Gram field of log(1 + c |w|^2) with c = (1 + |zb|^2)^k,
    for "prod:fsA:fsB" the round metric of the fiber factor.  The
    per-point oracle of ``fibration.vertical_field``."""
    kind, *rest = model_id.split(":")
    if kind == "prod":
        return fubini_study_chart(_parse_fs_token(rest[1]))
    c = (1.0 + float(np.vdot(zb, zb).real)) ** int(rest[0])
    mono = MonomialMap(1, [[(1.0, (0,))], [(np.sqrt(c), (1,))]])
    return from_potential_map(mono, radius=2.0, self_check=False)


def smooth_kernel_perturbation(field, z, seed=0):
    """The gauge check's default kernel-valued perturbation K as a
    function of one point, for gauge tests: the K of
    ``charts._kernel_perturbation`` seeded at z, reading the form of G at
    each point it is called at; the zero function for nondegenerate
    fields."""
    z0 = _as_point(z, field.m)
    k = _kernel_perturbation(field, z0, field.form_at(z0).kernel_basis, seed)

    def at(w):
        form = field.form_at(w)
        return k(w, form.gram, form.pinv)

    return at


def gate_points(z, s=1e-3):
    """The gate's stencil around z, centre first, then z + s e_a,
    z - s e_a, z + i s e_a and z - i s e_a for each coordinate a in turn."""
    z = np.asarray(z, dtype=complex)
    points = [z]
    for a in range(len(z)):
        e = np.zeros(len(z), dtype=complex)
        e[a] = 1.0
        points += [z + s * e, z - s * e, z + 1j * s * e, z - 1j * s * e]
    return points


def named(w):
    """A point as a RankJump names it: each coordinate to six decimals."""
    return "[%s]" % " ".join("%.6f%+.6fj" % (x.real, x.imag) for x in np.asarray(w, dtype=complex))


def loop_gate_rank(field, z, grams=None):
    """The per-point gate: the rank of G at each point of the gate's
    stencil by its own ``gram_rank``, centre first, stopping at the first
    point read as non-finite (NonFinite) or the first neighbor whose rank
    differs (RankJump).  G is read one point at a time, or is ``grams``,
    the caller's reads at the stencil in order."""
    points = gate_points(z, field.fd_outer_step)
    if grams is None:
        grams = [field.gram(w) for w in points]
    (center, *neighbors), (g0, *others) = points, grams
    r0 = gram_rank(g0, RANK_TOL, "Gram matrix of the rank gate", center)
    for w, g in zip(neighbors, others):
        r = gram_rank(g, RANK_TOL, "Gram matrix of the rank gate", w)
        if r != r0:
            raise RankJump(
                "rank %d at %s but %d at its stencil neighbor %s" % (r0, named(center), r, named(w))
            )
    return r0


def connection_at(field, z, form=None):
    """The connection solve at one point, step by step: the per-point
    oracle of ``charts.solve_rows``.  Returns (G, dG, A, residual) with
    A = pinv(G) dG by ``np.linalg.pinv`` and the residual
    max_a |G A_a - d_a G| / (1 + |d_a G|) by ``np.linalg.norm``, one
    coordinate a at a time.

    The gate reads G at its 4m + 1 stencil points in one ``gram_stack``
    call, as the package's gate does, so that a form read first by a
    one-row read meets the same guard, and ranks each point by
    :func:`loop_gate_rank`.  G is the gate's centre read, or ``form``, a
    form read before the solve, which must equal it bit for bit.  The
    errors come in the package's order: OutOfDomain, the gate's NonFinite
    or RankJump, the form guard's HermitiaError, NonFinite of dG (or what
    the dG read raises), SolverResidual."""
    z = _as_point(z, field.m)
    field._require_domain(z, field.fd_outer_step + field.fd_step)
    grams = field.gram_stack(np.array(gate_points(z, field.fd_outer_step)))
    loop_gate_rank(field, z, grams)
    g = grams[0]
    if form is not None:
        if not np.array_equal(form.gram, g):
            raise HermitiaError(_FORM_GUARD)
        g = form.gram
    dg = field.d(z)
    require_finite(dg, "first derivative", z)
    a = np.linalg.pinv(g, rcond=RANK_TOL, hermitian=True) @ dg
    # Frobenius norms summed in C order: a derivative kernel may return a
    # view that is not C-contiguous
    residual = max(
        np.linalg.norm((g @ a_a - dg_a).ravel()) / (1.0 + np.linalg.norm(dg_a.ravel()))
        for a_a, dg_a in zip(a, dg)
    )
    if residual > SOLVER_TOL:
        raise _solver_residual(residual)
    return g, dg, a, residual


def curvature_at(field, z):
    """The curvature tensor at one point from :func:`connection_at`, one
    coordinate pair at a time: R[a][b] = (dbar_b G A_a - d_a dbar_b G)^T."""
    a = connection_at(field, z)[2]
    dbg, ddg = field.dbar(z), field.dd(z)
    m = field.m
    return np.array([[(dbg[b] @ a[i] - ddg[i, b]).T for b in range(m)] for i in range(m)])


def logdet_order1(a, da, dda):
    """The first-order part (J, flattened H, d) of the log-det jet at one
    point, for a frame A (k, N) with dA (m, k, N) and ddA (m, m, k, N) or
    None: the per-point oracle of ``fields._logdet_order1``, the same
    products on one point's arrays.  Raises LinAlgError where A A^H is
    singular."""
    m, k, n = da.shape
    l_inv = np.linalg.inv(np.linalg.cholesky(a @ a.conj().T))
    q = l_inv @ a
    qh = q.conj().T
    dl = l_inv @ da
    kk = dl @ qh
    j = dl - kk @ q
    h = -(kk[:, None] @ j[None, :])
    h = h + h.swapaxes(0, 1)
    if dda is not None:
        e = l_inv @ dda
        h = h + e - (e @ qh) @ q
    hf = h.reshape(m * m, k * n)
    d = (hf @ j.reshape(m, k * n).conj().T).reshape(m, m, m)
    return j, hf, d.transpose(1, 2, 0)


def logdet_order2(j, hf):
    """The mixed second derivatives of the log-det Gram field at one point
    from :func:`logdet_order1`'s J and H: the per-point oracle of
    ``fields._logdet_order2``."""
    m, k = j.shape[:2]
    hh = (hf @ hf.conj().T).reshape(m, m, m, m)
    c = j[:, None] @ j.conj().swapaxes(-1, -2)[None, :]
    cc = (c.reshape(m * m, k * k) @ c.swapaxes(-1, -2).reshape(m * m, k * k).T).reshape(m, m, m, m)
    return hh.transpose(1, 3, 2, 0) - cc.transpose(0, 1, 3, 2) - cc.transpose(2, 1, 3, 0)


def logdet_jet(frame, z):
    """(d, dd) of the log-det Gram field at one point z from the frame
    there, frame(z) = (A, dA, ddA)."""
    j, hf, d = logdet_order1(*frame(z))
    return d, logdet_order2(j, hf)


def potential_frame(mono_map):
    """The one-row frame A = w^T of a potential map at one point, with its
    derivatives, as ``fields.from_potential_map`` reads it."""

    def frame(z):
        w, jac, hess = mono_map.jet(z, 2)
        return w[None], jac.T[:, None], hess.transpose(1, 2, 0)[:, :, None]

    return frame


def grassmann_frame(k, n):
    """The frame A = [I | Z] of ``models.grassmannian_chart`` at one point,
    with its constant first derivatives and no second."""
    m = k * (n - k)
    units = np.zeros((m, k, n), dtype=complex)
    units[:, :, k:] = np.eye(m).reshape(m, k, n - k)

    def frame(z):
        return np.hstack([np.eye(k), z.reshape(k, n - k)]), units, None

    return frame


def quotient_dq(seq, z):
    """dq at one point, one coordinate at a time: the per-point oracle of
    the ``dq`` of the records of ``ExactSeqChart.at``."""
    j, dj = seq.j_at(z), seq.dj_at(z)
    core = np.linalg.inv(seq._w0 @ j)
    out = np.empty((seq.m, seq.r - seq.k, seq.r), dtype=complex)
    for a in range(seq.m):
        inner = dj[a] @ core @ seq._w0 - j @ core @ (seq._w0 @ dj[a]) @ core @ seq._w0
        out[a] = -seq._n0h @ inner
    return out


def quotient_jet(seq, z):
    """(d, dd) of the closed-form quotient field G_Q at one point: the
    per-point oracle of ``ExactSeqChart._quot_jet``, its first-order part
    (H, K, G_Q, dG, E and dP) and both orders from one point's arrays."""
    amb, zs = seq.ambient, z[None]
    q = seq._frames(zs, seq._j_stack(zs))[1]
    h, k, x = (part[0] for part in seq._quot_parts(zs, q, amb.gram_stack(zs)))
    dg = amb.d(z)
    e = quotient_dq(seq, z) - k.conj().T @ dg
    dp = e @ k
    f = dg @ k
    ddp = (
        e[:, None] @ (h @ conj_transpose(e))[None, :]
        + conj_transpose(f)[None, :] @ (h @ f)[:, None]
        - k.conj().T @ amb.dd(z) @ k
    )
    dph = conj_transpose(dp)
    inner = dp[:, None] @ x @ dph[None, :] + dph[None, :] @ x @ dp[:, None] - ddp
    return -x @ dp @ x, x @ inner @ x


def sum_curvature_loop(t1, t2, a1, a2, gq):
    """The curvature of a sum from its summands' tensors t1 and t2, their
    connections a1 and a2 and the sum quotient Gram matrix gq, one
    coordinate pair at a time: M_ab = M1_ab + M2_ab - sigma_b^H G_q
    sigma_a with sigma = a1 - a2, the tensor entry its transpose.  The
    per-pair oracle of ``sequences.sum_curvature``."""
    m, r = t1.shape[0], t1.shape[-1]
    tensor = np.empty((m, m, r, r), dtype=complex)
    for a in range(m):
        for b in range(m):
            sig_a = a1[a] - a2[a]
            sig_b = a1[b] - a2[b]
            m_h = t1[a, b].T + t2[a, b].T - sig_b.conj().T @ gq @ sig_a
            tensor[a, b] = m_h.T
    return tensor


class SeqPoint:
    """The sequence data at one point z of an ``ExactSeqChart``, each
    quantity on first read, one point and one coordinate at a time: the
    per-point oracle of the stacked records of ``hermitia.sequences``.

    ``ambient``, ``sub`` and ``quot`` are ``FieldAt`` records at z, each
    reading its field on its own; j and dj are the chart's one-point
    reads, q the quotient frame of a one-point read of j, and dq is
    :func:`quotient_dq`; the adjoints are ``adjoint`` of
    one map at a time, and sigma is q (d_a j + A_E j - j A_S) for each
    coordinate a in turn.  Reading sigma solves the ambient, then the sub,
    so it raises what they raise in that order."""

    def __init__(self, seq, z):
        self.seq, self.z = seq, _as_point(z, seq.m)
        self.ambient, self.sub, self.quot = (
            FieldAt(field, self.z) for field in (seq.ambient, seq.sub_field, seq.quot_field)
        )

    @cached_property
    def j(self):
        return self.seq.j_at(self.z)

    @cached_property
    def dj(self):
        return self.seq.dj_at(self.z)

    @cached_property
    def q(self):
        zs = self.z[None]
        return self.seq._frames(zs, self.seq._j_stack(zs))[1][0]

    @cached_property
    def dq(self):
        return quotient_dq(self.seq, self.z)

    @cached_property
    def jdag(self):
        return adjoint(LinearMap(self.j), self.sub.form, self.ambient.form).matrix

    @cached_property
    def qdag(self):
        return adjoint(LinearMap(self.q), self.ambient.form, self.quot.form).matrix

    @cached_property
    def sigma(self):
        a_e, a_s = self.ambient.a, self.sub.a
        return np.stack([self.q @ (self.dj[a] + a_e[a] @ self.j - self.j @ a_s[a]) for a in range(self.seq.m)])

    @cached_property
    def sigma_dagger(self):
        b_s, b_q = self.sub.form, self.quot.form
        return np.stack([adjoint(LinearMap(s), b_s, b_q).matrix for s in self.sigma])


def refine_direction_walk(tensor, g, v0, steps, sign):
    """The projected gradient walk of ``models._refine_direction`` with
    its halving line search tried one step at a time: at most 20 steps
    0.1, 0.05, ... along the tangent gradient, each candidate normalized
    and scored on its own, the first that improves H taken.  The
    per-candidate oracle of the two-stage line search."""
    v = v0 / np.linalg.norm(v0)
    best = hsc_of_tensor(tensor, g, v)
    alpha = 0.1
    for _ in range(steps):
        grad = _hsc_gradient(tensor, g, v)
        grad -= np.real(np.vdot(v, grad)) * v
        if np.linalg.norm(grad) < GRADIENT_FLOOR:
            break
        improved = False
        step = alpha
        for _ in range(20):
            cand = v + sign * step * grad
            cand /= np.linalg.norm(cand)
            val = hsc_of_tensor(tensor, g, cand)
            if sign * (val - best) > 0:
                v, best = cand, val
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return v, best


def point_scan(field, region, n_points, directions_per_point, seed_key, steps, signs, gate=None):
    """``models._scan`` one point at a time: draw point idx and its
    directions; with a gate, check that G at that point is finite (else
    NonFinite naming the point) and gate it (a stack of one); read its
    curvature by ``curvature_tensor``, score its directions, then move to
    the next point; None at the first point the gate rejects.  The
    incumbents are refined by :func:`refine_direction_walk`.  The
    per-point oracle of the block read of a gated scan."""
    incumbents = [None] * len(signs)
    for idx in range(n_points):
        rng = np.random.default_rng(np.random.SeedSequence(seed_key + [idx]))
        z = _sample_polydisc(rng, field.m, region)
        if gate is not None:
            g = field.gram(z)
            require_finite(g, "Gram matrix", z)
            if not gate(g[None])[0]:
                return None
        curv = curvature_tensor(field, z)
        dirs = _unit_directions(rng, field.m, directions_per_point)
        h = hsc_of_tensor(curv.tensor, curv.form.gram, dirs)
        for k, sign in enumerate(signs):
            i = np.argmax(sign * h)
            if incumbents[k] is None or sign * h[i] > sign * incumbents[k][0]:
                incumbents[k] = (h[i], z, dirs[i], curv)
    extremes = []
    for sign, (_, z, v, curv) in zip(signs, incumbents):
        v, h = refine_direction_walk(curv.tensor, curv.form.gram, v, steps, sign)
        extremes.append((float(h), z, v))
    return extremes
