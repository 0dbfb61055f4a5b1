import gc
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia import (
    HermitiaError,
    NonFinite,
    NotHolomorphic,
    NotPositive,
    OutOfDomain,
    RankJump,
    SolverResidual,
    ZeroVector,
    charts,
)
from hermitia.charts import (
    ChartField,
    FieldAt,
    HolomorphicMap,
    chern_connection,
    curvature_20_defect,
    curvature_from_connection,
    curvature_tensor,
    gauge_independence_residual,
    hsc,
    hsc_of_tensor,
    pullback_consistency,
    torsion_defect,
)
from hermitia.errors import NotPositiveAtPoint
from hermitia.forms import FormStack
from hermitia.fields import (
    MatrixPolynomial,
    MonomialMap,
    constant_field,
    embedded_factor_field,
    from_factor,
    from_potential_map,
    fs_monomials,
    pullback_field,
    sum_field,
    twisted_fiber_monomials,
)
from hermitia.instances import gauge_instance, random_degenerate_field, random_pd_field, sequence_instance
from hermitia.models import grassmannian_chart

from oracles import (
    connection_at,
    curvature_at,
    gate_points,
    loop_gate_rank,
    named,
    outer_dd,
    smooth_kernel_perturbation,
    wirtinger_fd,
)


def fs_line(radius=3.0):
    return from_potential_map(fs_monomials(1), radius=radius, name="fs1")


def fs_plane(radius=3.0):
    return from_potential_map(fs_monomials(2), radius=radius, name="fs2")


def tautological_line(radius=2.0):
    """G = 1 + |z|^2, the restriction of the flat metric to the line (1, z)."""
    poly = MatrixPolynomial(np.array([[1.0], [0.0]]), c1=np.array([[[0.0], [1.0]]]))
    return from_factor(poly, 1, radius=radius, name="taut")


def degenerate_factor(m=2, seed=5, radius=1.0):
    """Curved constant-rank-2 field with a 3-dimensional fiber.

    L(z) = D(z) K with D tall (3x2, affine in z) and K a constant 2x3
    matrix, so rank G = 2 < 3 everywhere near 0 and the range of L is a
    moving plane (a wide full-row-rank factor would be flat).
    """
    rng = np.random.default_rng(seed)
    d0 = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    d1 = 0.3 * (rng.standard_normal((m, 3, 2)) + 1j * rng.standard_normal((m, 3, 2)))
    k = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    poly = MatrixPolynomial(d0 @ k, c1=np.stack([d1[a] @ k for a in range(m)]))
    return from_factor(poly, m, radius=radius, name="deg")


def product_of_lines(radius=2.0):
    f = fs_line()
    e0 = embedded_factor_field(f, 2, 0, radius=radius)
    e1 = embedded_factor_field(f, 2, 1, radius=radius)
    return sum_field(e0, e1, name="p1xp1")


def diag_kernel(fn):
    """The kernel of the diagonal Gram field diag(1, fn(z))."""
    return lambda zs: np.stack([np.diag([1.0, fn(z)]) for z in zs])


# ---------------------------------------------------------------------------
# chart fields and Wirtinger derivatives


def test_gram_is_hermitized_on_read():
    f = ChartField(
        1, 2, lambda zs: np.array([[[1.0, z[0]], [0.0, 1.0]] for z in zs]), self_check=False
    )
    g = f.gram([0.4j])
    assert abs(g[0, 1] - 0.2j) < 1e-14
    assert abs(g[1, 0] + 0.2j) < 1e-14


def test_eval_shape_mismatch_is_an_error():
    f = ChartField(1, 2, lambda zs: np.stack([np.eye(3)] * len(zs)), self_check=False)
    with pytest.raises(HermitiaError):
        f.gram([0.0])


def test_wirtinger_holomorphic_and_conjugate_directions():
    f = ChartField(1, 1, lambda zs: 1.0 + np.abs(zs[:, :, None]) ** 2, self_check=False)
    z = [0.3 - 0.2j]
    assert abs(f.d(z)[0, 0, 0] - (0.3 + 0.2j)) < 1e-9
    assert abs(f.dbar(z)[0, 0, 0] - (0.3 - 0.2j)) < 1e-9


def test_fd_derivatives_require_stencil_room():
    f = ChartField(
        1, 1, lambda zs: np.ones((len(zs), 1, 1)), radius=1.0, fd_step=1e-2, self_check=False
    )
    with pytest.raises(OutOfDomain):
        f.d([0.9999])
    with pytest.raises(OutOfDomain):
        f.dbar([0.9999])


def test_self_check_rejects_wrong_analytic_derivative():
    with pytest.raises(HermitiaError, match="finite differences"):
        ChartField(
            1,
            1,
            lambda zs: 1.0 + np.abs(zs[:, :, None]) ** 2,
            d_fn=lambda zs: 2.0 * zs.conj()[:, :, None, None],
            dd_fn=lambda zs: np.ones((len(zs), 1, 1, 1, 1)),
        )


@pytest.mark.parametrize("order", ["first", "second"])
def test_self_check_names_the_order_whose_analytic_derivative_is_wrong(order):
    """On a curved m = 2 field whose self-check stacks its reads, a d_fn
    (or dd_fn) off by a tenth of the true one fails with the order named
    and the point of the worst disagreement.  The expected point comes
    from the per-point route: the 10 + 3 points drawn by sample_box one at
    a time from the same generator, each compared on its own with the
    stencil at it (or the ring of one-point d reads around it)."""
    base = random_pd_field(np.random.default_rng(np.random.SeedSequence([45])), 2, 3)
    d_fn, dd_fn = base.d_fn, base.dd_fn
    if order == "first":
        d_fn = lambda zs: 1.1 * base.d_fn(zs)
    else:
        dd_fn = lambda zs: 1.1 * base.dd_fn(zs)
    rng = np.random.default_rng(np.random.SeedSequence([7, 2, 3]))
    spreads = [0.5] * 10 + [0.4] * 3
    points = [base.center + charts.sample_box(rng, 2, s * base.radius) / np.sqrt(2.0) for s in spreads]
    if order == "first":
        drawn = points[:10]
        fd = base.finite_difference_copy()
        pairs = [(1.1 * base.d(z), fd.d(z)) for z in drawn]
    else:
        drawn = points[10:]
        pairs = [(1.1 * base.dd(z), outer_dd(base, z)) for z in drawn]
    errors = [
        np.max(np.linalg.norm(a - b, axis=(-2, -1)) / (1.0 + np.linalg.norm(b, axis=(-2, -1))))
        for a, b in pairs
    ]
    message = "analytic %s derivatives disagree with finite differences (relative error %.2e) at %s" % (
        order,
        max(errors),
        charts._named(drawn[int(np.argmax(errors))]),
    )
    with pytest.raises(HermitiaError, match=re.escape(message)):
        ChartField(2, 3, base.stack_fn, radius=base.radius, d_fn=d_fn, dd_fn=dd_fn)


@pytest.mark.parametrize("order", ["first", "second"])
def test_self_check_rejects_nan_analytic_derivatives(order):
    """A d_fn (or dd_fn) that reads NaN fails the self-check of its order,
    naming the first point drawn for that order, where the first NaN is."""
    base = random_pd_field(np.random.default_rng(np.random.SeedSequence([45])), 2, 3)
    d_fn, dd_fn = base.d_fn, base.dd_fn
    if order == "first":
        d_fn = lambda zs: np.full((len(zs), 2, 3, 3), np.nan)
    else:
        dd_fn = lambda zs: np.full((len(zs), 2, 2, 3, 3), np.nan)
    rng = np.random.default_rng(np.random.SeedSequence([7, 2, 3]))
    spreads = [0.5] * 10 + [0.4] * 3
    points = [base.center + charts.sample_box(rng, 2, s * base.radius) / np.sqrt(2.0) for s in spreads]
    first = points[0] if order == "first" else points[10]
    message = "analytic %s derivatives disagree with finite differences (relative error nan) at %s" % (
        order,
        charts._named(first),
    )
    with pytest.raises(HermitiaError, match=re.escape(message)):
        ChartField(2, 3, base.stack_fn, radius=base.radius, d_fn=d_fn, dd_fn=dd_fn)


@pytest.mark.parametrize("given", ["d_fn", "dd_fn"])
def test_a_field_takes_both_analytic_derivatives_or_neither(given):
    jet = {"d_fn": lambda zs: np.zeros((len(zs), 1, 1, 1)), "dd_fn": lambda zs: np.zeros((len(zs), 1, 1, 1, 1))}
    with pytest.raises(HermitiaError, match="both d_fn and dd_fn or neither"):
        ChartField(
            1, 1, lambda zs: np.ones((len(zs), 1, 1)), self_check=False, **{given: jet[given]}
        )


def test_rank_at_counts_significant_singular_values():
    f = ChartField(1, 2, diag_kernel(lambda z: abs(z[0]) ** 2), self_check=False)
    assert f.rank_at([0.0]) == 1
    assert f.rank_at([0.5]) == 2


# ---------------------------------------------------------------------------
# non-finite input and read counts


@pytest.mark.parametrize("solve", [chern_connection, curvature_tensor])
def test_nan_gram_raises_non_finite(solve):
    # eigvalsh returns the finite spectrum [0, -0] for this matrix
    f = ChartField(1, 2, lambda zs: np.stack([np.diag([np.nan, 1.0])] * len(zs)),
                   d_fn=lambda zs: np.zeros((len(zs), 1, 2, 2)), dd_fn=lambda zs: np.zeros((len(zs), 1, 1, 2, 2)),
                   self_check=False)
    with pytest.raises(NonFinite, match="rank gate is not finite at"):
        solve(f, [0.1])
    with pytest.raises(NonFinite):
        f.form_at([0.1]).rank


@pytest.mark.parametrize("solve", [chern_connection, curvature_tensor])
def test_inf_gram_raises_non_finite(solve):
    f = ChartField(1, 2, lambda zs: np.stack([np.diag([np.inf, 1.0])] * len(zs)),
                   d_fn=lambda zs: np.zeros((len(zs), 1, 2, 2)), dd_fn=lambda zs: np.zeros((len(zs), 1, 1, 2, 2)),
                   self_check=False)
    # hermitizing a complex inf multiplies it by 0 and warns; the read must raise
    with np.errstate(invalid="ignore"), pytest.raises(NonFinite, match="Gram matrix"):
        solve(f, [0.1])


@pytest.mark.parametrize("which", ["d_fn", "dd_fn"])
def test_nan_derivative_raises_non_finite(which):
    base = fs_line()
    evaluators = {"d_fn": base.d_fn, "dd_fn": base.dd_fn}
    evaluators[which] = lambda zs: np.full((len(zs),) + (1,) * (3 if which == "d_fn" else 4), np.nan)
    f = ChartField(1, 1, base.stack_fn, radius=3.0, self_check=False, **evaluators)
    stage = "first derivative" if which == "d_fn" else "mixed second derivative"
    with pytest.raises(NonFinite, match=stage + r" is not finite at \[0\.2"):
        curvature_tensor(f, [0.2])


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("solve", [chern_connection, curvature_tensor])
def test_one_solve_reads_the_gram_4m_plus_1_times(solve, m):
    base = from_potential_map(fs_monomials(m), radius=3.0)
    reads = []

    def counted(zs):
        reads.extend(zs)
        return base.stack_fn(zs)

    f = ChartField(m, m, counted, radius=3.0, d_fn=base.d_fn, dd_fn=base.dd_fn, self_check=False)
    solve(f, np.full(m, 0.2 + 0.1j))
    assert len(reads) == 4 * m + 1


# ---------------------------------------------------------------------------
# the stacked constant-rank gate


def gate_outcomes(field, z):
    """(the solve's stacked gate, the per-point loop), each as the rank at
    z or the RankJump text."""
    out = []
    for gate in (lambda: chern_connection(field, z).form.rank, lambda: loop_gate_rank(field, z)):
        try:
            out.append(gate())
        except RankJump as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_stacked_gate_ranks_as_the_per_point_loop(seed):
    rng = np.random.default_rng(np.random.SeedSequence([83, seed]))
    m, r = 1 + seed % 3, 2 + seed % 2
    fields = [random_pd_field(rng, m, r)] + [random_degenerate_field(rng, m, r, k) for k in range(1, r)]
    for f in fields:
        for _ in range(3):
            z = 0.4 * (rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m))
            stacked, loop = gate_outcomes(f, z)
            assert stacked == loop
            assert np.array_equal(chern_connection(f, z).form.gram, f.gram(z))


@pytest.mark.parametrize("m", [1, 2])
def test_stacked_gate_jumps_where_the_loop_does(m):
    z = np.full(m, 0.3 - 0.1j)
    points = gate_points(z)
    for i, p in enumerate(points):
        f = ChartField(
            m, 2, diag_kernel(lambda w, p=p: np.linalg.norm(w - p) ** 2), self_check=False
        )
        stacked, loop = gate_outcomes(f, z)
        assert stacked == loop
        assert stacked == ("rank 1 at %s but 2 at its stencil neighbor %s" % (named(z), named(points[1]))
                           if i == 0
                           else "rank 2 at %s but 1 at its stencil neighbor %s" % (named(z), named(p)))


def test_stacked_gate_on_the_hirzebruch_zero_section():
    from hermitia.fibration import hirzebruch_model

    b1 = hirzebruch_model(1).b1_field
    on, off = np.array([0.2 + 0.1j, 0.0]), np.array([0.2 + 0.1j, 0.3 - 0.2j])
    stacked, loop = gate_outcomes(b1, on)
    assert stacked == loop and isinstance(stacked, str)
    with pytest.raises(RankJump):
        curvature_tensor(b1, on)
    stacked, loop = gate_outcomes(b1, off)
    assert stacked == loop == 2


@pytest.mark.parametrize("m", [1, 2])
def test_nan_in_one_stencil_read_names_that_point(m):
    base = from_potential_map(fs_monomials(m), radius=3.0)
    z = np.full(m, 0.2 + 0.1j)
    for p in gate_points(z):
        def poisoned(zs, p=p):
            hit = np.array([np.array_equal(w, p) for w in zs])
            return np.where(hit[:, None, None], np.nan, base.stack_fn(zs))

        f = ChartField(
            m, m, poisoned, radius=3.0, d_fn=base.d_fn, dd_fn=base.dd_fn, self_check=False
        )
        where = np.array2string(p, precision=3)
        with pytest.raises(NonFinite) as info:
            curvature_tensor(f, z)
        assert str(info.value) == "Gram matrix of the rank gate is not finite at %s" % where


@pytest.mark.parametrize("rows, size", [(0, 3), (-1, 2)])
def test_stack_fn_of_the_wrong_shape_is_an_error(rows, size):
    def stack_fn(zs):
        return np.zeros((len(zs) + rows, size, size))

    f = ChartField(2, 2, stack_fn, self_check=False)
    with pytest.raises(HermitiaError, match="field evaluator returned shape"):
        curvature_tensor(f, [0.1, 0.2])
    with pytest.raises(HermitiaError, match="field evaluator returned shape"):
        f.gram_stack(np.zeros((3, 2)))


def test_hsc_reads_the_gram_4m_plus_1_times():
    base = fs_plane()
    reads = []

    def counted(zs):
        reads.extend(zs)
        return base.stack_fn(zs)

    f = ChartField(2, 2, counted, radius=3.0, d_fn=base.d_fn, dd_fn=base.dd_fn, self_check=False)
    assert abs(hsc(f, [0.2 + 0.1j, -0.1j], [1.0, 0.5j]) - 2.0) < 1e-10
    assert len(reads) == 4 * 2 + 1


def test_hsc_factorizes_the_gram_once_after_the_gate(monkeypatch):
    f = fs_plane()
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert abs(hsc(f, [0.2 + 0.1j, -0.1j], [1.0, 0.5j]) - 2.0) < 1e-10
    # the solve's pseudoinverse and the positivity check share one eigh,
    # the one-row factorization of the solve's forms
    assert calls == [(1, 2, 2)]


def test_hsc_positivity_comes_before_a_failed_solve():
    # not positive-definite, and the rank jumps at the centre
    jump = ChartField(1, 1, lambda zs: -np.abs(zs[:, :, None]) ** 2, self_check=False)
    # rank one everywhere, and G A = dG has no solution (see
    # test_connection_rejects_non_admissible_field)
    residual = ChartField(
        2, 2, lambda zs: np.stack([np.outer([1.0, z[0]], np.conj([1.0, z[0]])) for z in zs]),
        radius=1.0, self_check=False,
    )
    # indefinite, with the stencil outside the chart
    edge = constant_field(np.diag([1.0, -1.0]), 2, radius=0.5)
    for f, z, v in ((jump, [0.0], [1.0]), (residual, [0.5, 0.0], [1.0, 0.0]), (edge, [0.4995, 0.0], [1.0, 0.0])):
        with pytest.raises(NotPositiveAtPoint, match="metric is not positive-definite"):
            hsc(f, z, v)
    # positive-definite at the centre: the solve's own error stands
    p = gate_points([0.3])[2]
    pd_jump = ChartField(1, 1, lambda zs: np.abs(zs[:, :, None] - p[0]) ** 2, self_check=False)
    with pytest.raises(RankJump):
        hsc(pd_jump, [0.3], [1.0])


# ---------------------------------------------------------------------------
# monomial maps and potential fields


def test_monomial_map_value_jacobian_hessian_are_exact():
    # w = (z1^2 z2, 3 z2^3 + z1)
    mm = MonomialMap(2, [[(1.0, (2, 1))], [(3.0, (0, 3)), (1.0, (1, 0))]])
    z = np.array([0.4 + 0.1j, -0.3 + 0.2j])
    value, jac, hess = mm.jet(z, 2)
    assert abs(value[0] - z[0] ** 2 * z[1]) < 1e-14
    assert abs(value[1] - (3 * z[1] ** 3 + z[0])) < 1e-14
    assert abs(jac[0, 0] - 2 * z[0] * z[1]) < 1e-14
    assert abs(jac[1, 1] - 9 * z[1] ** 2) < 1e-14
    assert abs(hess[0, 0, 0] - 2 * z[1]) < 1e-14
    assert abs(hess[0, 0, 1] - 2 * z[0]) < 1e-14
    assert abs(hess[0, 1, 0] - 2 * z[0]) < 1e-14
    assert abs(hess[1, 1, 1] - 18 * z[1]) < 1e-14


def test_matrix_polynomial_derivative():
    rng = np.random.default_rng(0)
    c0 = rng.standard_normal((2, 2)) + 0j
    c1 = rng.standard_normal((2, 2, 2)) + 0j
    poly = MatrixPolynomial(c0, c1=c1)
    z = np.array([0.3 + 0.1j, -0.2j])
    h = 1e-6
    for a in range(2):
        e = np.zeros(2, dtype=complex)
        e[a] = 1.0
        fd = (poly.value(z + h * e) - poly.value(z - h * e)) / (2 * h)
        assert np.linalg.norm(poly.d(z)[a] - fd) < 1e-7


def test_fs_line_gram_matches_closed_form():
    f = fs_line()
    for z in [0.0, 0.3 - 0.2j, 0.8j]:
        expect = 1.0 / (1.0 + abs(z) ** 2) ** 2
        assert abs(f.gram([z])[0, 0] - expect) < 1e-13


def test_potential_fields_carry_analytic_derivatives():
    f = fs_plane()
    assert f.analytic
    assert f.dd_fn is not None
    # construction already cross-checked them against finite differences


def test_twisted_potential_norm_identity():
    mm = twisted_fiber_monomials(3)
    z = np.array([0.4 + 0.1j, -0.3 + 0.25j])
    lhs = float(np.sum(np.abs(mm.jet(z, 0)[0]) ** 2))
    rhs = 1.0 + (1.0 + abs(z[0]) ** 2) ** 3 * abs(z[1]) ** 2
    assert abs(lhs - rhs) < 1e-12


def test_tautological_line_gram():
    f = tautological_line()
    assert abs(f.gram([0.5])[0, 0] - 1.25) < 1e-14
    assert f.analytic


# ---------------------------------------------------------------------------
# connections


def test_connection_of_constant_field_vanishes():
    f = constant_field(np.diag([2.0, 3.0]), 2)
    conn = chern_connection(f, [0.1, -0.2j])
    assert np.linalg.norm(conn.a) < 1e-12
    assert conn.kernel_basis.dim == 0


def test_connection_fs_line_value():
    # G^-1 dG = -2 conj(z) / (1 + |z|^2); at z = 1 this is -1
    conn = chern_connection(fs_line(), [1.0])
    assert abs(conn.a[0, 0, 0] + 1.0) < 1e-12
    assert conn.residual < 1e-12


def test_connection_degenerate_min_norm():
    def kernel(zs):
        return np.stack([np.diag([np.exp(abs(z[0]) ** 2), 0.0]) for z in zs])

    f = ChartField(1, 2, kernel, radius=1.0, self_check=False)
    z = [0.3 + 0.2j]
    conn = chern_connection(f, z)
    assert abs(conn.a[0][0, 0] - (0.3 - 0.2j)) < 1e-6
    assert abs(conn.a[0][1, 1]) < 1e-10  # min-norm puts nothing in the kernel slot
    assert conn.kernel_basis.dim == 1


def test_kernel_basis_is_built_only_when_read(monkeypatch):
    """A connection solve, and the gauge check's many of them, build no
    Subspace and run no SVD; reading kernel_basis builds one of each."""
    field, z = gauge_instance(0)
    built, svds = [], []
    subspace, svd = charts.Subspace, np.linalg.svd
    monkeypatch.setattr(charts, "Subspace", lambda *a, **k: built.append(a) or subspace(*a, **k))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(a) or svd(*a, **k))
    conn = chern_connection(field, z)
    assert gauge_independence_residual(field, z, seed=0) <= 1e-6
    assert built == [] and svds == []
    assert conn.kernel_basis.dim == field.shape - conn.form.rank == 1
    assert len(built) == 1 and len(svds) == 1
    conn.kernel_basis
    assert len(built) == 1


def test_connection_rejects_non_admissible_field():
    # G = v v^H with holomorphic v: dG = (dv) v^H leaves the range of G,
    # so G A = dG has no solution (the factor sits on the wrong side)
    def kernel(zs):
        v = np.stack([np.ones(len(zs)), zs[:, 0]], axis=1)
        return v[:, :, None] * v.conj()[:, None, :]

    f = ChartField(1, 2, kernel, radius=1.0, self_check=False)
    with pytest.raises(SolverResidual):
        chern_connection(f, [0.5])


def test_constant_rank_gate():
    f = ChartField(1, 2, diag_kernel(lambda z: abs(z[0]) ** 2), self_check=False)
    with pytest.raises(RankJump):
        chern_connection(f, [0.0])
    # away from the degeneracy line the same field is fine
    conn = chern_connection(f, [0.5])
    assert conn.residual < 1e-6


def test_curvature_needs_stencil_room_near_boundary():
    f = fs_line(radius=1.0)
    with pytest.raises(OutOfDomain):
        curvature_tensor(f.finite_difference_copy(), [0.9995])


# ---------------------------------------------------------------------------
# curvature


def test_curvature_of_constant_field_vanishes():
    f = constant_field(np.diag([1.0, 2.0]), 2)
    r = curvature_tensor(f, [0.2, 0.1j])
    assert np.linalg.norm(r.tensor) < 1e-12


def test_curvature_fs_line_at_origin():
    r = curvature_tensor(fs_line(), [0.0])
    assert abs(r.tensor[0, 0, 0, 0] - 2.0) < 1e-12


def test_curvature_tautological_line_at_origin():
    r = curvature_tensor(tautological_line(), [0.0])
    assert abs(r.tensor[0, 0, 0, 0] + 1.0) < 1e-12


def test_wide_full_row_rank_factors_are_flat():
    # with L of full row rank, L G^+ L^H is the identity and the curvature
    # M_ab = (d_b L)^H (L G^+ L^H - I)(d_a L) collapses to zero
    rng = np.random.default_rng(2)
    c0 = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    c1 = 0.3 * (rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3)))
    f = from_factor(MatrixPolynomial(c0, c1=c1), 2, radius=1.0)
    r = curvature_tensor(f, [0.1, -0.2j])
    assert np.linalg.norm(r.tensor) < 1e-12


def test_degenerate_factor_is_curved():
    r = curvature_tensor(degenerate_factor(), [0.1 + 0.05j, -0.2j])
    assert np.linalg.norm(r.tensor) > 1e-2


def test_pair_symmetry_analytic():
    r = curvature_tensor(fs_plane(), [0.25, -0.3j])
    assert r.pair_symmetry_residual() < 1e-14


def test_curvature_matches_connection_route():
    z = [0.2, -0.15 + 0.1j]
    f = fs_plane()
    direct = curvature_tensor(f, z).tensor

    def a_fn(w):
        return chern_connection(f, w).a

    via_conn = curvature_from_connection(f, z, a_fn)
    assert np.linalg.norm(direct - via_conn) / np.linalg.norm(direct) < 1e-6


def test_curvature_matches_connection_route_degenerate():
    f = degenerate_factor()
    z = [0.1 + 0.05j, -0.2j]
    direct = curvature_tensor(f, z).tensor

    def a_fn(w):
        return chern_connection(f, w).a

    via_conn = curvature_from_connection(f, z, a_fn)
    assert np.linalg.norm(direct - via_conn) / np.linalg.norm(direct) < 1e-6


def test_fd_curvature_converges_at_second_order():
    exact = curvature_tensor(fs_line(), [0.4]).tensor

    def err(h):
        f = ChartField(
            1, 1, fs_line().stack_fn, radius=3.0, fd_step=h, fd_outer_step=h, self_check=False
        )
        return np.linalg.norm(curvature_tensor(f, [0.4]).tensor - exact)

    ratio = err(1e-2) / err(5e-3)
    assert 3.0 < ratio < 5.0


# ---------------------------------------------------------------------------
# holomorphic sectional curvature


def test_hsc_fs_line_is_constant_two():
    f = fs_line()
    for z in [0.0, 0.5, 0.3 - 0.6j]:
        assert abs(hsc(f, [z], [1.0]) - 2.0) < 1e-12


def test_hsc_fs_plane_is_constant_two():
    f = fs_plane()
    rng = np.random.default_rng(11)
    for _ in range(8):
        z = 0.6 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(hsc(f, z, v) - 2.0) < 1e-10


def test_hsc_flat_field_is_zero():
    f = constant_field(np.eye(2), 2)
    assert abs(hsc(f, [0.1, 0.2], [1.0, 1.0j])) < 1e-12


def test_hsc_product_of_lines():
    prod = product_of_lines()
    z = [0.0, 0.0]
    assert abs(hsc(prod, z, [1.0, 0.0]) - 2.0) < 1e-10
    assert abs(hsc(prod, z, [0.0, 1.0]) - 2.0) < 1e-10
    # diagonal direction averages the two factors
    assert abs(hsc(prod, z, [1.0, 1.0]) - 1.0) < 1e-10


def test_hsc_scales_inversely_with_the_metric():
    f = fs_line()
    tripled = sum_field(f, f, c1=2.0, c2=1.0)
    assert abs(hsc(tripled, [0.2], [1.0]) - 2.0 / 3.0) < 1e-10


def test_hsc_rejects_zero_vector_and_nonmetric_input():
    with pytest.raises(ZeroVector):
        hsc(fs_line(), [0.0], [0.0])
    with pytest.raises(NotPositiveAtPoint):
        hsc(constant_field(np.diag([1.0, -1.0]), 2), [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(HermitiaError):
        hsc(degenerate_factor(), [0.0, 0.0], [1.0, 0.0])


def test_hsc_of_tensor_matches_direct_contraction():
    f = fs_plane()
    z = [0.2, 0.3j]
    r = curvature_tensor(f, z)
    v = np.array([1.0, 0.5 - 0.25j])
    assert abs(hsc_of_tensor(r.tensor, f.gram(z), v) - hsc(f, z, v)) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_hsc_equals_one_direction_at_a_time(m):
    rng = np.random.default_rng(np.random.SeedSequence([41, m]))
    if m == 1:
        # G = L^H L for a 3 x 1 column L: the square 1 x 1 factor of
        # random_pd_field would make G = |l|^2 flat
        c = rng.standard_normal((2, 3, 1)) + 1j * rng.standard_normal((2, 3, 1))
        f = from_factor(MatrixPolynomial(c[0], c1=c[1:]), 1, radius=2.0)
    else:
        f = random_pd_field(rng, m, m)
    z = 0.3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    r = curvature_tensor(f, z)
    assert np.abs(r.tensor).max() > 0.0
    g = r.form.gram
    dirs = rng.standard_normal((20, m)) + 1j * rng.standard_normal((20, m))
    stacked = hsc_of_tensor(r.tensor, g, dirs)
    assert stacked.shape == (20,)
    single = np.array([hsc_of_tensor(r.tensor, g, v) for v in dirs])
    assert all(isinstance(hsc_of_tensor(r.tensor, g, v), float) for v in dirs)
    assert np.array_equal(stacked, single)


@pytest.mark.filterwarnings("error")
def test_a_zero_direction_raises_zero_vector():
    r = curvature_tensor(fs_plane(), [0.2, 0.3j])
    with pytest.raises(ZeroVector, match="direction 0 of 1 is zero"):
        hsc_of_tensor(r.tensor, r.form.gram, np.zeros(2))


@pytest.mark.filterwarnings("error")
def test_a_zero_row_in_a_stack_of_directions_raises_zero_vector():
    r = curvature_tensor(fs_plane(), [0.2, 0.3j])
    dirs = np.ones((4, 2), dtype=complex)
    dirs[2] = 0.0
    with pytest.raises(ZeroVector, match="direction 2 of 4 is zero"):
        hsc_of_tensor(r.tensor, r.form.gram, dirs)


@pytest.mark.parametrize("shape", [(), (1,), (3,), (5, 3)])
def test_a_direction_of_the_wrong_length_names_the_expected_length(shape):
    f = fs_plane()
    r = curvature_tensor(f, [0.2, 0.3j])
    v = np.ones(shape)
    with pytest.raises(HermitiaError, match="must have length 2"):
        hsc_of_tensor(r.tensor, r.form.gram, v)
    with pytest.raises(HermitiaError, match="must have length 2"):
        hsc(f, [0.2, 0.3j], v)


def test_a_direction_along_which_g_is_not_positive_raises_not_positive():
    g = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(NotPositive, match="direction 1 of 2"):
        hsc_of_tensor(np.zeros((2, 2, 2, 2), dtype=complex), g, [[1.0, 0.0], [1.0, 1.0]])


def test_matrix_polynomial_value_equals_tensordot_oracle():
    rng = np.random.default_rng(np.random.SeedSequence([43]))
    for _ in range(300):
        m, p, r = (int(k) for k in rng.integers(1, 5, size=3))
        c0 = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
        c1 = rng.standard_normal((m, p, r)) + 1j * rng.standard_normal((m, p, r))
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        oracle = c0.copy() + np.tensordot(z, c1, axes=1)
        assert np.array_equal(MatrixPolynomial(c0, c1=c1).value(z), oracle)


def test_matrix_polynomial_value_at_a_point_equals_its_stacked_row():
    rng = np.random.default_rng(np.random.SeedSequence([44]))
    for _ in range(300):
        m, p, r = (int(k) for k in rng.integers(1, 5, size=3))
        c0 = rng.standard_normal((p, r)) + 1j * rng.standard_normal((p, r))
        c1 = rng.standard_normal((m, p, r)) + 1j * rng.standard_normal((m, p, r))
        poly = MatrixPolynomial(c0, c1=c1)
        z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        assert np.array_equal(poly.value(z), poly.value(z[None])[0])


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(-0.6, 0.6),
    im=st.floats(-0.6, 0.6),
)
def test_hsc_fs_line_constant_everywhere(re, im):
    assert abs(hsc(fs_line(), [re + 1j * im], [1.0]) - 2.0) < 1e-10


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.1, 10.0))
def test_hsc_inverse_scaling_law(scale):
    f = fs_line()
    scaled = sum_field(f, f, c1=scale, c2=0.0)
    assert abs(hsc(scaled, [0.3], [1.0]) - 2.0 / scale) < 1e-8


# ---------------------------------------------------------------------------
# torsion and the vanishing (2,0) part


def test_torsion_vanishes_for_potential_fields():
    assert torsion_defect(fs_plane(), [0.1, 0.2]) < 1e-12


def test_torsion_detects_asymmetric_first_derivatives():
    def kernel(zs):
        return np.stack([[[1.0, z[0] / 4.0], [np.conj(z[0]) / 4.0, 1.0]] for z in zs])

    def dv(zs):
        d = np.zeros((len(zs), 2, 2, 2), dtype=complex)
        d[:, 0, 0, 1] = 0.25
        return d

    def ddv(zs):
        return np.zeros((len(zs), 2, 2, 2, 2), dtype=complex)

    f = ChartField(2, 2, kernel, d_fn=dv, dd_fn=ddv)
    assert abs(torsion_defect(f, [0.1, -0.2j]) - 0.25) < 1e-12


def test_torsion_zero_for_transposed_variant():
    def kernel(zs):
        return np.stack([[[1.0, np.conj(z[0]) / 4.0], [z[0] / 4.0, 1.0]] for z in zs])

    def dv(zs):
        d = np.zeros((len(zs), 2, 2, 2), dtype=complex)
        d[:, 0, 1, 0] = 0.25
        return d

    def ddv(zs):
        return np.zeros((len(zs), 2, 2, 2, 2), dtype=complex)

    f = ChartField(2, 2, kernel, d_fn=dv, dd_fn=ddv)
    assert torsion_defect(f, [0.1, -0.2j]) < 1e-12


def test_curvature_20_part_vanishes():
    assert curvature_20_defect(fs_plane(), [0.2, 0.1j]) < 1e-6
    assert curvature_20_defect(degenerate_factor(), [0.1, -0.05 + 0.1j]) < 1e-6


# ---------------------------------------------------------------------------
# gauge independence on degenerate fields


def test_kernel_perturbation_is_kernel_valued_nearby():
    f = degenerate_factor()
    z = np.array([0.1 + 0.05j, -0.2j])
    k = smooth_kernel_perturbation(f, z, seed=3)
    assert np.linalg.norm(k(z)) > 1e-3  # genuinely nonzero
    for dz in [0.0, 0.02, -0.03j]:
        w = z + dz
        assert np.linalg.norm(f.gram(w) @ k(w)) < 1e-10


def test_kernel_perturbation_trivial_for_nondegenerate_field():
    f = fs_plane()
    k = smooth_kernel_perturbation(f, [0.1, 0.2], seed=1)
    assert np.linalg.norm(k([0.14, 0.2 - 0.01j])) == 0.0


def test_gauge_independence_degenerate():
    f = degenerate_factor()
    res = gauge_independence_residual(f, [0.1 + 0.05j, -0.2j], seed=3)
    assert res < 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gauge_independence_more_seeds(seed):
    f = degenerate_factor(seed=7)
    res = gauge_independence_residual(f, [0.05 - 0.1j, 0.12j], seed=seed)
    assert res < 1e-6


# ---------------------------------------------------------------------------
# pullbacks along holomorphic maps


def test_pullback_field_chain_rule():
    amb = fs_plane()
    mp = HolomorphicMap(
        lambda t: np.array([t[0] ** 2, 0.3 * t[0]]),
        1,
        2,
        jacobian=lambda t: np.array([[2.0 * t[0]], [0.3]]),
    )
    pb = pullback_field(amb, mp, center=[0.2], radius=0.3)
    assert pb.analytic
    z = np.array([0.25 + 0.05j])
    fd = wirtinger_fd(pb.gram, z, 0, 1e-5, False)
    assert np.linalg.norm(pb.d(z)[0] - fd) < 1e-8
    fd2 = wirtinger_fd(lambda w: pb.d(w)[0].conj().T, z, 0, 1e-4, False)
    assert np.linalg.norm(pb.dd(z)[0, 0] - fd2) < 1e-6


def test_pullback_consistency_identity_map():
    ident = HolomorphicMap(lambda t: t.copy(), 1, 1, jacobian=lambda t: np.eye(1, dtype=complex))
    assert pullback_consistency(ident, fs_line(), [0.35]) < 1e-6


def test_pullback_consistency_linear_embedding():
    mp = HolomorphicMap(
        lambda t: np.array([t[0], 0.0], dtype=complex),
        1,
        2,
        jacobian=lambda t: np.array([[1.0], [0.0]], dtype=complex),
    )
    assert pullback_consistency(mp, fs_plane(), [0.3 + 0.1j]) < 1e-6


def test_pullback_consistency_moebius():
    a = 0.3 - 0.2j

    def mob(t):
        return np.array([(t[0] + a) / (1.0 - np.conj(a) * t[0])])

    def jac(t):
        return np.array([[(1.0 + abs(a) ** 2) / (1.0 - np.conj(a) * t[0]) ** 2]])

    mp = HolomorphicMap(mob, 1, 1, jacobian=jac)
    assert pullback_consistency(mp, fs_line(), [0.2 + 0.1j]) < 1e-6


def test_pullback_consistency_rejects_antiholomorphic_maps():
    mp = HolomorphicMap(lambda t: t.conj(), 1, 1)
    with pytest.raises(NotHolomorphic):
        pullback_consistency(mp, fs_line(), [0.2])


def test_holomorphy_defect_values():
    good = HolomorphicMap(lambda t: np.array([t[0] ** 3]), 1, 1)
    bad = HolomorphicMap(lambda t: np.array([t[0] + 0.5 * t[0].conj()]), 1, 1)
    assert good.holomorphy_defect([0.4]) < 1e-9
    assert abs(bad.holomorphy_defect([0.4]) - 0.5) < 1e-9


# ---------------------------------------------------------------------------
# product assembly helpers


def test_embedded_factor_blocks():
    f = fs_line()
    emb = embedded_factor_field(f, 3, 1, radius=2.0)
    z = np.array([0.5, 0.2 - 0.1j, -0.3])
    g = emb.gram(z)
    assert abs(g[1, 1] - f.gram([z[1]])[0, 0]) < 1e-14
    assert np.linalg.norm(g[0]) < 1e-14 and np.linalg.norm(g[2]) < 1e-14
    d = emb.d(z)
    assert np.linalg.norm(d[0]) == 0.0 and np.linalg.norm(d[2]) == 0.0
    assert abs(d[1][1, 1] - f.d([z[1]])[0, 0, 0]) < 1e-14


def test_sum_field_is_analytic_when_both_are():
    prod = product_of_lines()
    assert prod.analytic
    g = prod.gram([0.2, 0.3j])
    f = fs_line()
    assert abs(g[0, 0] - f.gram([0.2])[0, 0]) < 1e-14
    assert abs(g[1, 1] - f.gram([0.3j])[0, 0]) < 1e-14
    assert abs(g[0, 1]) < 1e-14


def test_sum_field_requires_matching_charts():
    with pytest.raises(ValueError):
        sum_field(fs_line(), fs_plane())


# ---------------------------------------------------------------------------
# every finite difference reads one probe ring


def _nonlinear_map():
    return HolomorphicMap(
        lambda t: np.array([t[0] ** 2 * t[1], np.exp(t[1]), t[0] + 3.0 * t[1] ** 3]), 2, 3
    )


def test_fd_jacobian_equals_the_per_direction_stencil():
    mp = _nonlinear_map()
    z = np.array([0.3 - 0.1j, -0.2 + 0.25j])
    for conjugate in (False, True):
        slow = np.stack(
            [wirtinger_fd(mp, z, j, charts.MAP_FD_STEP, conjugate) for j in range(2)], axis=1
        )
        fast = mp._fd_columns(z, conjugate)
        assert np.array_equal(fast, slow)
        if conjugate:
            assert mp.holomorphy_defect(z) == float(np.linalg.norm(slow))
        else:
            assert np.array_equal(mp.jacobian(z), slow)


def test_curvature_from_connection_equals_the_per_direction_stencil():
    f = degenerate_factor()
    z = np.array([0.1 + 0.05j, -0.2j])

    def a_fn(w):
        return chern_connection(f, w).a

    g = f.gram(z)
    slow = np.empty((2, 2, 3, 3), dtype=complex)
    for b in range(2):
        dbar_a = wirtinger_fd(a_fn, z, b, charts.PROBE_STEP, True)
        for a in range(2):
            slow[a, b] = -(g @ dbar_a[a]).T
    assert np.array_equal(curvature_from_connection(f, z, a_fn), slow)


def curvature_20_oracle(field, z):
    """The (2,0) defect from a fresh chern_connection at each stencil
    point, one direction at a time."""
    conn = chern_connection(field, z)
    g, a0 = conn.form.gram, conn.a
    m = field.m
    da = np.stack(
        [wirtinger_fd(lambda w: chern_connection(field, w).a, z, c, charts.PROBE_STEP) for c in range(m)]
    )
    scale = 1.0 + max(np.linalg.norm(g @ da[c][a]) for c in range(m) for a in range(m))
    defect = 0.0
    for a in range(m):
        for b in range(a + 1, m):
            f20 = da[a][b] - da[b][a] + a0[a] @ a0[b] - a0[b] @ a0[a]
            defect = max(defect, float(np.linalg.norm(g @ f20)))
    return defect / scale


@pytest.mark.parametrize("make, z", [(fs_plane, [0.2, 0.1j]), (degenerate_factor, [0.1, -0.05 + 0.1j])])
def test_curvature_20_defect_equals_the_per_direction_stencil(make, z):
    field = make()
    z = np.asarray(z, dtype=complex)
    assert curvature_20_defect(field, z) == curvature_20_oracle(field, z)


def gauge_oracle(field, z, seed):
    """The gauge residual from two curvature_from_connection runs over a
    fresh chern_connection at each ring point."""
    pert = smooth_kernel_perturbation(field, z, seed=seed)

    def a_fn(w):
        return chern_connection(field, w).a

    r0 = curvature_from_connection(field, z, a_fn)
    r1 = curvature_from_connection(field, z, lambda w: a_fn(w) + pert(w))
    return float(np.linalg.norm(r0 - r1) / (1.0 + np.linalg.norm(r0)))


@pytest.mark.parametrize("seed", range(8))
def test_stacked_ring_solve_equals_per_point_solves(seed):
    """solve_points over a probe ring against chern_connection and the
    oracle at each ring point, and the two ring checks built on it against
    per-point rings."""
    field, z = gauge_instance(seed)
    ring = charts._stencil_ring(z, charts.PROBE_STEP)
    stacked = charts.solve_points(field, ring)
    for i, w in enumerate(ring):
        fresh = chern_connection(field, w)
        g, dg, a, residual = connection_at(field, w)
        assert np.array_equal(stacked.forms.gram[i], fresh.form.gram)
        assert np.array_equal(stacked.forms.pinv[i], fresh.form.pinv)
        for name, want in (("dg", dg), ("a", a), ("residual", residual)):
            assert np.array_equal(getattr(stacked, name)[i], getattr(fresh, name)), name
            assert np.array_equal(getattr(fresh, name), want), name
    assert gauge_independence_residual(field, z, seed=seed) == gauge_oracle(field, z, seed)
    assert curvature_20_defect(field, z) == curvature_20_oracle(field, z)


FIELD_ROWS_SEQUENCE = sequence_instance(1)


def _field_rows_cases():
    """Every metric model of the registry at a seeded point inside its
    region, and the three fields of a sequence instance at its point."""
    from hermitia.models import resolve_model

    cases = {}
    for mid in ("fs:1", "fs:2", "fs:3", "gr:1:3", "gr:2:4", "gr:3:6"):
        field = resolve_model(mid).field
        rng = np.random.default_rng(np.random.SeedSequence([61, field.m]))
        cases[mid] = (field, charts.sample_box(rng, field.m, 0.3))
    seq, z = FIELD_ROWS_SEQUENCE
    for part, field in (("ambient", seq.ambient), ("sub", seq.sub_field), ("quot", seq.quot_field)):
        cases["sequence " + part] = (field, z)
    return cases


FIELD_ROWS_CASES = _field_rows_cases()


@pytest.mark.parametrize("name", sorted(FIELD_ROWS_CASES))
@pytest.mark.parametrize("forms_first", [False, True], ids=["solved", "forms_first"])
def test_field_rows_equal_the_one_point_records(name, forms_first):
    """FieldRows of a field at z and its probe ring, solved first or with
    its forms read first: row i of its forms, dG, A and residual equals
    FieldAt at that point bit for bit, and its tensor, z's, equals
    curvature_tensor at z.  On every metric model of the registry and on
    the three fields of a sequence, whose record's own FieldRows equal
    the same, the quotient's solve at z alone."""
    field, z = FIELD_ROWS_CASES[name]
    zs = charts._gate_stencil(z, charts.PROBE_STEP)
    rows = charts.FieldRows(field, zs)
    if forms_first:
        rows.forms
    want = [FieldAt(field, w) for w in zs]
    for i, rec in enumerate(want):
        assert np.array_equal(rows.forms.gram[i], rec.form.gram), i
        assert np.array_equal(rows.forms.pinv[i], rec.form.pinv), i
        for what in ("dg", "a", "residual"):
            assert np.array_equal(getattr(rows.solves, what)[i], getattr(rec, what)), (i, what)
    assert np.array_equal(rows.tensor, curvature_tensor(field, z).tensor)
    if name.startswith("sequence"):
        seq = FIELD_ROWS_SEQUENCE[0]
        record = getattr(seq.at(z), name.split()[1])
        solved = 1 if field is seq.quot_field else len(zs)
        assert np.array_equal(record.forms.gram, rows.forms.gram)
        for what in ("dg", "a", "residual"):
            assert np.array_equal(getattr(record.solves, what), getattr(rows.solves, what)[:solved]), what
        assert np.array_equal(record.tensor, rows.tensor)


def _oracle_fields():
    from hermitia.fibration import h_lambda, hirzebruch_model
    from hermitia.models import resolve_model

    rng = np.random.default_rng(np.random.SeedSequence([89]))
    hirz = hirzebruch_model(1)
    return {
        "fs:2": resolve_model("fs:2").field,
        "fs:2 fd": resolve_model("fs:2").field.finite_difference_copy(),
        "gr:2:4": grassmannian_chart(2, 4).field,
        "gr:1:3": grassmannian_chart(1, 3).field,
        "hirz:1 b1": hirz.b1_field,
        "hirz:1 b2": hirz.b2_field,
        "h_lambda(hirz:1, 0)": h_lambda(hirz, 0.0),
        "degenerate 1 3 2": random_degenerate_field(rng, 1, 3, 2),
        "degenerate 2 4 2": random_degenerate_field(rng, 2, 4, 2),
        "pd 2 3": random_pd_field(rng, 2, 3),
    }


ORACLE_FIELDS = _oracle_fields()


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(ORACLE_FIELDS)),
    coords=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
)
def test_the_solve_equals_the_per_point_oracle(name, coords):
    """At points drawn over the chart of every field constructor, the
    solve raises what the per-point oracle raises, or its A and residual
    equal the oracle's bit for bit and its tensor the oracle's to 1e-12
    relative."""
    field = ORACLE_FIELDS[name]
    x = np.asarray(coords[: 2 * field.m]).reshape(2, field.m)
    z = field.center + 0.6 * field.radius * (x[0] + 1j * x[1]) / np.sqrt(2.0)
    want = _first_error(lambda: connection_at(field, z))
    assert _first_error(lambda: curvature_tensor(field, z)) == want
    if want is None:
        rec = curvature_tensor(field, z)
        _, _, a, residual = connection_at(field, z)
        assert np.array_equal(rec.a, a) and rec.residual == residual
        oracle = curvature_at(field, z)
        assert np.linalg.norm(rec.tensor - oracle) <= 1e-12 * max(1.0, np.linalg.norm(oracle))


def _first_error(solve):
    try:
        solve()
    except HermitiaError as exc:
        return type(exc), str(exc)
    return None


def _outcomes_match_the_oracle(field, points):
    """In every order of ``points``, solve_points raises what the oracle
    raises first, solving the points one at a time, and so does each
    point's own chern_connection; returns the error kinds met."""
    kinds = set()
    for order in itertools.permutations(points):
        want = _first_error(lambda: [connection_at(field, w) for w in order])
        assert want == _first_error(lambda: charts.solve_points(field, np.stack(order)))
        kinds.add(want[0])
    for w in points:
        assert _first_error(lambda: connection_at(field, w)) == _first_error(lambda: chern_connection(field, w))
    return kinds


def test_stacked_solve_raises_the_error_of_the_first_failing_point():
    """G = diag(1, 100 |w - 0.3|^2), read as NaN at -0.2, on the disc of
    radius 0.5: one point passes, one has the rank jump at 0.3 as a gate
    neighbor, one the NaN, and one lies outside.  In every order,
    solve_points raises what the oracle raises first, and reads no point
    after the first one outside."""
    def fn(w):
        return np.nan if abs(w[0] + 0.2) < 1e-12 else 100.0 * abs(w[0] - 0.3) ** 2

    field = ChartField(1, 2, diag_kernel(fn), radius=0.5, self_check=False)
    points = [np.array([x]) for x in (0.1 + 0.1j, 0.3 - 1e-3, -0.2 - 1e-3, 0.4995)]
    assert _outcomes_match_the_oracle(field, points) == {RankJump, NonFinite, OutOfDomain}
    assert charts.solve_points(field, points[0][None]).residual[0] <= charts.SOLVER_TOL


def test_stacked_solve_keeps_the_per_point_order_when_its_derivative_read_raises():
    """G = diag(1, 0) with a d_fn that puts d_a G in Ker G where Re w >
    0.2, so the solve there fails, and that raises NonFinite on any stack
    holding a point with Re w < -0.2.  solve_points reads dG for all its
    points in one call; when that call raises, each point reads its own
    row, so in every order the error is the one the oracle raises
    first."""
    def d_fn(zs):
        if (zs.real < -0.2).any():
            raise NonFinite("dG is not finite on this stack")
        out = np.zeros((len(zs), 1, 2, 2), dtype=complex)
        out[:, 0, 1, 1] = zs[:, 0].real > 0.2
        return out

    field = ChartField(
        1,
        2,
        lambda zs: np.stack([np.diag([1.0, 0.0])] * len(zs)),
        radius=0.9,
        d_fn=d_fn,
        dd_fn=lambda zs: np.zeros((len(zs), 1, 1, 2, 2)),
        self_check=False,
    )
    points = [np.array([x]) for x in (0.1j, 0.3, -0.3)]
    assert _outcomes_match_the_oracle(field, points) == {SolverResidual, NonFinite}


def _step_failing_at(fault):
    """A stacked step under the stop rule's contract: row i of its value
    is 2 sin(x_i), a function of point i alone, and on a stack holding the
    point ``fault`` it raises RankJump naming that point, raised while
    another error is handled and chained to it, as an error caught deep
    in a solve would be."""
    def step(zs, x):
        bad = np.flatnonzero(zs[:, 0].real == fault)
        if bad.size:
            try:
                raise KeyError("inner")
            except KeyError as exc:
                raise RankJump("the step fails at point %g" % zs[bad[0], 0].real) from exc
        return 2.0 * np.sin(x)

    return step


@pytest.mark.parametrize(
    "size, fault",
    [(size, fault) for size in range(34) for fault in [None, *range(size)]],
)
def test_the_stop_rule_keeps_the_leading_rows_and_the_first_error(size, fault):
    """charts._leading on stacks of 0 to 33 points with a fault at each
    point or at none: its n, error type and error message are those of
    running the step one point at a time, its value is the step of the
    leading n points bit for bit, it runs the step at most
    ceil(log2 B) + 1 times on B points, and a caught error is kept with no
    traceback, cause or context, so it holds no frame."""
    rng = np.random.default_rng(np.random.SeedSequence([83, size]))
    zs = np.arange(size, dtype=complex)[:, None]
    x = rng.standard_normal((size, 3))
    failing = _step_failing_at(fault)
    n, error = size, None
    for i in range(size):
        try:
            failing(zs[i : i + 1], x[i : i + 1])
        except HermitiaError as exc:
            n, error = i, exc
            break
    calls = []

    def step(zs):
        calls.append(len(zs))
        return failing(zs, x[: len(zs)])

    got = charts._leading(step, zs)
    assert len(calls) <= math.ceil(math.log2(max(size, 1))) + 1
    assert got.n == n
    if n or error is None:
        assert np.array_equal(got.value, failing(zs[:n], x[:n]))
    else:
        assert got.value is None
    if error is None:
        assert got.error is None
    else:
        assert (type(got.error), str(got.error)) == (type(error), str(error))
        assert got.error.__traceback__ is None
        assert got.error.__cause__ is None and got.error.__context__ is None
        with pytest.raises(RankJump, match=re.escape(str(error))):
            got.raise_error()


def _raising_field_rows():
    """Records whose solve raises at z: FieldRows at stacks whose first
    point has a rank jump as a gate neighbor, holds a NaN, lies outside
    the chart, or fails a derivative read that raises for the whole
    stack; and a FieldAt whose form, read first, is not its gate's
    G(z)."""
    def fn(w):
        return np.nan if abs(w[0] + 0.2) < 1e-12 else 100.0 * abs(w[0] - 0.3) ** 2

    field = ChartField(1, 2, diag_kernel(fn), radius=0.5, self_check=False)

    def d_fn(zs):
        if (zs.real < -0.2).any():
            raise NonFinite("dG is not finite on this stack")
        return np.zeros((len(zs), 1, 2, 2), dtype=complex)

    d_raises = ChartField(
        1, 2, lambda zs: np.stack([np.eye(2)] * len(zs)), radius=0.9,
        d_fn=d_fn, dd_fn=lambda zs: np.zeros((len(zs), 1, 1, 2, 2)), self_check=False,
    )

    def off_kernel(zs):
        return np.stack([np.eye(2) * (1.0 + 1e-9 * (len(zs) == 1))] * len(zs))

    off = ChartField(1, 2, off_kernel, radius=0.5, self_check=False)

    def form_read_first():
        rec = FieldAt(off, [0.1])
        rec.form
        return rec

    cases = [
        lambda first=first: charts.FieldRows(field, np.array([[first], [0.1 + 0.1j]]))
        for first in (0.3 - 1e-3, -0.2 - 1e-3, 0.4995)
    ]
    return cases + [lambda: charts.FieldRows(d_raises, np.array([[-0.3], [0.1j]])), form_read_first]


def test_a_field_rows_whose_solve_raised_leaves_no_cyclic_garbage():
    """A FieldRows keeps the error of its first failing point built
    unraised or detached, and raises a copy of it, so one whose solve
    raised holds no reference cycle: with the collector off, five
    records of each kind that raise, then dropped, and a FieldAt whose
    form is read after its solve raised, leave nothing for gc.collect."""
    makers = _raising_field_rows()
    gc.collect()
    gc.disable()
    try:
        for make in makers * 5:
            rows = make()
            with pytest.raises(HermitiaError):
                rows.solves
            del rows
        rec = makers[0]()
        rec = FieldAt(rec.field, rec.zs[0])
        with pytest.raises(RankJump):
            rec.tensor
        rec.form
        del rec
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def test_stacked_solve_keeps_and_guards_a_form_read_first():
    """A kernel that breaks the row contract where Re w > 0.05 (a one-row
    read differs from a stacked one there), so a form read first at such
    a point is not the gate's G(z).  With any of the records' forms read
    first, in every order, the records raise what the oracle raises
    first, and so does the stacked solve of records whose forms, one
    FormStack of those reads, are read first (``charts.FieldRows`` under
    ``charts._leading``); a record whose form was read keeps it."""
    def stack_fn(zs):
        out = np.zeros((len(zs), 2, 2), dtype=complex)
        out[:, 0, 0] = 1.0 + (len(zs) == 1) * 1e-9 * (zs[:, 0].real > 0.05)
        out[:, 1, 1] = 2.0 + abs(zs[:, 0]) ** 2
        return out

    field = ChartField(1, 2, stack_fn, radius=0.5, self_check=False)
    points = [np.array([x]) for x in (-0.1j, 0.2, 0.4995)]

    def solve(order, read_first):
        records = [FieldAt(field, w) for w in order]
        for rec, read in zip(records, read_first):
            if read:
                rec.form
        for rec in records:
            rec.a

    def oracle(order, read_first):
        for w, read in zip(order, read_first):
            connection_at(field, w, field.form_at(w) if read else None)

    def solve_read_first(zs, read):
        def solve(zs):
            rows = charts.FieldRows(field, zs, forms=lambda: FormStack(read[: len(zs)], zs, charts.RANK_TOL))
            rows.forms
            return rows.solves

        solved = charts._leading(solve, zs)
        if solved.error is not None:
            solved.raise_error()

    kinds = set()
    for order in itertools.permutations(points):
        for read_first in itertools.product((False, True), repeat=len(order)):
            want = _first_error(lambda: oracle(order, read_first))
            assert want == _first_error(lambda: solve(order, read_first))
            kinds.add(want[0])
        zs = np.stack(order)
        read = np.stack([field.form_at(w).gram for w in order])
        want = _first_error(lambda: oracle(order, (True,) * len(order)))
        assert want == _first_error(lambda: solve_read_first(zs, read))
    assert kinds == {HermitiaError, OutOfDomain}
    rec = FieldAt(field, points[0])
    form = rec.form
    g, dg, a, residual = connection_at(field, rec.point, form)
    assert rec.a is not None and rec.form is form
    for name, want in (("dg", dg), ("a", a), ("residual", residual)):
        assert np.array_equal(getattr(rec, name), want), name


@pytest.mark.parametrize(
    "make, z",
    [
        (lambda: gauge_instance(1)[0], None),
        (degenerate_factor, [0.1, -0.05 + 0.1j]),
        (fs_plane, [0.2, 0.1j]),
    ],
)
def test_a_form_read_first_is_factorized_once(make, z, monkeypatch):
    """A record whose form is read, and factorized, before its solve: the
    solve reuses the form's one-row FormStack, so one eigh of shape
    (1, r, r) in all, and the record equals one solved first bit for
    bit."""
    field = make()
    z = gauge_instance(1)[1] if z is None else np.asarray(z, dtype=complex)
    want = curvature_tensor(field, z)
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rec = FieldAt(field, z)
    assert rec.form.rank == want.form.rank
    assert np.array_equal(rec.form.kernel_basis, want.form.kernel_basis)
    for name in ("a", "residual", "tensor"):
        assert np.array_equal(getattr(rec, name), getattr(want, name)), name
    assert np.array_equal(rec.form.pinv, want.form.pinv)
    assert calls == [(1,) + rec.form.gram.shape]


@pytest.mark.parametrize("seed, m, gates", [(0, 1, 5), (1, 2, 9)])
def test_gauge_check_solves_each_point_once(gate_points, seed, m, gates):
    """One gate at z and one at each of the 4m ring points; the two
    candidates share the ring's solves and still give the residual of two
    separate curvature_from_connection runs."""
    field, z = gauge_instance(seed)
    assert field.m == m
    pert = smooth_kernel_perturbation(field, z, seed=seed)

    def a_fn(w):
        return chern_connection(field, w).a

    r0 = curvature_from_connection(field, z, a_fn)
    r1 = curvature_from_connection(field, z, lambda w: a_fn(w) + pert(w))
    want = float(np.linalg.norm(r0 - r1) / (1.0 + np.linalg.norm(r0)))
    gate_points.clear()
    assert gauge_independence_residual(field, z, seed=seed) == want
    assert len(gate_points) == len(set(gate_points)) == gates


@pytest.mark.parametrize("seed, form_reads, eighs", [(0, 0, 5), (1, 0, 9)])
def test_gauge_check_factorizes_each_point_once(monkeypatch, seed, form_reads, eighs):
    """The default perturbation reads the forms of the solves at z and at
    the ring points: no form_at read, and one factorization at z and one
    at each ring point, all in one batched eigh call."""
    field, z = gauge_instance(seed)
    want = gauge_independence_residual(field, z, seed=seed)
    counts = {"form_at": 0, "eigh": 0, "eigh calls": 0}
    form_at, eigh = ChartField.form_at, np.linalg.eigh

    def counting_form_at(self, w):
        counts["form_at"] += 1
        return form_at(self, w)

    def counting_eigh(a, *args, **kw):
        counts["eigh"] += int(np.prod(np.shape(a)[:-2]))
        counts["eigh calls"] += 1
        return eigh(a, *args, **kw)

    monkeypatch.setattr(ChartField, "form_at", counting_form_at)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert gauge_independence_residual(field, z, seed=seed) == want
    assert counts == {"form_at": form_reads, "eigh": eighs, "eigh calls": 1}


def test_gauge_check_takes_a_supplied_perturbation():
    field, z = gauge_instance(1)
    pert = smooth_kernel_perturbation(field, z, seed=1)
    assert gauge_independence_residual(field, z, perturbation=pert) == gauge_independence_residual(
        field, z, seed=1
    )
    scaled = gauge_independence_residual(field, z, perturbation=lambda w: 3.0 * pert(w))
    assert 0.0 <= scaled <= 1e-6



def _hirzebruch_h0():
    from hermitia.fibration import h_lambda, hirzebruch_model

    return h_lambda(hirzebruch_model(1), 0.0)


@pytest.mark.parametrize(
    "make, z",
    [
        (lambda: grassmannian_chart(2, 4).field, [0.2, -0.1j, 0.15 + 0.05j, -0.3]),
        (fs_plane, [0.2, 0.1j]),
        (degenerate_factor, [0.1, -0.05 + 0.1j]),
        (_hirzebruch_h0, [0.7, 0.0]),
    ],
)
def test_stacked_solve_and_assembly_equal_the_loops(make, z):
    """The connection of one stacked product equals the per-coordinate
    solves, and the tensor of one stacked product the per-pair assembly,
    in C order, so H reads the same from either."""
    field = make()
    z = np.asarray(z, dtype=complex)
    rec = curvature_tensor(field, z)
    dg, gp = rec.dg, rec.form.pinv
    m, r = field.m, field.shape
    assert np.array_equal(rec.a, np.stack([gp @ dg[i] for i in range(m)]))
    dbg, ddg = field.dbar(z), field.dd(z)
    loop = np.empty((m, m, r, r), dtype=complex)
    for a in range(m):
        for b in range(m):
            loop[a, b] = (dbg[b] @ gp @ dg[a] - ddg[a, b]).T
    assert np.array_equal(rec.tensor, loop)
    # both C order, whatever order the kernel returns its stack in
    assert rec.tensor.flags.c_contiguous and rec.form.gram.flags.c_contiguous
    if r == m:
        rng = np.random.default_rng(3)
        v = rng.standard_normal((5, m)) + 1j * rng.standard_normal((5, m))
        assert np.array_equal(hsc_of_tensor(rec.tensor, rec.form.gram, v), hsc_of_tensor(loop, rec.form.gram, v))
