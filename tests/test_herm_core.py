import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia import (
    HermitianForm,
    LinearMap,
    NoAdjoint,
    NotPositive,
    NotSurjective,
    Subspace,
    adjoint,
    adjoint_freedom_dims,
    admits_adjoint,
    equiv_mod_kernel,
    hom_form,
    kernel,
    limit_form,
    orthogonal_complement,
    purge,
    quotient_form,
    sum_quotient_form,
)
from hermitia.errors import NonFinite
from hermitia.fibration import q_lambda_limit
from hermitia import charts
from hermitia.forms import (
    LIMIT_COEFF_CUT,
    FormStack,
    adjoint_stack,
    gram_rank,
    gram_ranks,
    hermitize,
    rank_of,
)
from hermitia.instances import balanced_limit_pair
from hermitia.models import resolve_model


def form(entries, **kw):
    return HermitianForm(np.array(entries, dtype=complex), **kw)


def random_psd_form(rng, dim, rank=None):
    """X^H X with X of a chosen rank; rank=None means full rank."""
    r = dim if rank is None else rank
    x = rng.standard_normal((r, dim)) + 1j * rng.standard_normal((r, dim))
    return HermitianForm(x.conj().T @ x)


def random_hermitian_form(rng, dim, rank=None):
    """Indefinite Hermitian form of prescribed rank."""
    r = dim if rank is None else rank
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    signs = rng.choice([-1.0, 1.0], size=r)
    mags = 0.2 + rng.random(r)
    w = np.concatenate([signs * mags, np.zeros(dim - r)])
    return HermitianForm(q @ np.diag(w) @ q.conj().T)


def same_span(basis_a, basis_b, tol=1e-9):
    sa = Subspace(basis_a.shape[0], basis_a)
    sb = Subspace(basis_b.shape[0], basis_b)
    return np.linalg.norm(sa.projector() - sb.projector()) <= tol


# ---------------------------------------------------------------------------
# the rank rule and the shared factorization


def test_rank_rule_is_relative_and_order_free():
    assert rank_of([3.0, 1e-9, 2.0], 1e-8) == 2
    assert rank_of([1e-9, 3.0, 1e-7], 1e-8) == 2
    assert rank_of([0.0, 0.0], 1e-8) == 0
    assert rank_of([], 1e-8) == 0
    with pytest.raises(NonFinite):
        rank_of([1.0, np.nan], 1e-8)


def one_by_one_ranks(grams, tol):
    """gram_rank per matrix, -1 where it raises NonFinite."""
    out = []
    for g in grams:
        try:
            out.append(gram_rank(g, tol))
        except NonFinite:
            out.append(-1)
    return out


@pytest.mark.parametrize("batched_solver_fails", [False, True])
def test_stacked_ranks_equal_one_matrix_ranks(batched_solver_fails, monkeypatch):
    rng = np.random.default_rng(37)
    grams = [make(rng, 4, rank=rank).gram for make in (random_psd_form, random_hermitian_form) for rank in range(5)]
    grams += [np.diag([np.nan, 1.0, 1.0, 1.0]), np.diag([np.inf, 1.0, 1.0, 1.0]), np.full((4, 4), np.nan)]
    grams = np.stack(grams).astype(complex)
    if batched_solver_fails:
        eigvalsh = np.linalg.eigvalsh

        def one_at_a_time(a):
            if np.ndim(a) > 2:
                raise np.linalg.LinAlgError("batched solve failed")
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", one_at_a_time)
    assert list(gram_ranks(grams, 1e-8)) == one_by_one_ranks(grams, 1e-8)
    assert list(gram_ranks(grams, 1e-8))[-3:] == [-1, -1, -1]


@pytest.mark.parametrize("make", [random_psd_form, random_hermitian_form])
def test_form_pinv_is_numpy_pinv_and_spans_the_kernel(make):
    rng = np.random.default_rng(31)
    for dim in range(1, 6):
        for rank in range(dim + 1):
            for _ in range(5):
                g = make(rng, dim, rank=rank).gram
                b = HermitianForm(g, rank_tol=1e-8)
                assert np.array_equal(b.pinv, np.linalg.pinv(g, rcond=1e-8, hermitian=True))
                # independent oracle: the null space from an SVD of the Gram matrix
                _, s, vh = np.linalg.svd(g)
                svd_kernel = vh[np.count_nonzero(s > 1e-8 * s[0]):].conj().T
                assert kernel(b).dim == svd_kernel.shape[1] == dim - rank
                assert same_span(kernel(b).basis, svd_kernel)


def near_cutoff_form(rng):
    """A seeded 3x3 form with spectrum (1, 0.5, 1e-10 (1 + 1e-8 eps)): its
    smallest eigenvalue lies within rounding of DEFAULT_RANK_TOL."""
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    w = np.array([1.0, 0.5, 1e-10 * (1.0 + 1e-8 * rng.standard_normal())])
    return HermitianForm(q @ np.diag(w) @ q.conj().T)


def test_one_factorization_decides_rank_kernel_and_purge_near_the_cutoff():
    rng = np.random.default_rng(41)
    ranks = set()
    for _ in range(400):
        b = near_cutoff_form(rng)
        ranks.add(b.rank)
        assert b.rank + kernel(b).dim == b.dim
        assert purge(b).purged_form.dim == b.rank
        f = LinearMap(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        adjoint_freedom_dims(f, b, near_cutoff_form(rng))
    assert ranks == {2, 3}  # the cutoff really is straddled


def test_one_eigh_per_form_across_repeated_calls(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rng = np.random.default_rng(43)
    bV, bW = random_psd_form(rng, 4, rank=2), random_psd_form(rng, 3, rank=2)
    f = LinearMap(np.zeros((3, 4)))
    for _ in range(3):
        assert bV.rank == 2 and bW.kernel_dim == 1
        kernel(bV), kernel(bW), purge(bV), purge(bW)
        adjoint(f, bV, bW), admits_adjoint(f, bV, bW), adjoint_freedom_dims(f, bV, bW)
        assert bV.is_positive_semidefinite() and not bW.is_positive_definite()
    assert calls == [(4, 4), (3, 3)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_batched_factorization_equals_one_eigh_per_form(dim, monkeypatch):
    """A FormStack runs one eigh for all its rows, and each of its rows
    read as a form (FormStack.form) then reads the same rank, kernel,
    pinv and purge as a twin that factorizes on its own, with no eigh of
    its own."""
    rng = np.random.default_rng(np.random.SeedSequence([61, dim]))
    grams = [random_psd_form(rng, dim, rank).gram for rank in range(dim + 1)]
    grams += [random_hermitian_form(rng, dim, rank).gram for rank in range(dim + 1)]
    twins = [HermitianForm(g) for g in grams]
    for twin in twins:
        twin.pinv  # each twin's own eigh, before counting
    stack = FormStack(np.stack(grams), np.zeros((len(grams), 1), dtype=complex), twins[0].rank_tol)
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    forms = [stack.form(i) for i in range(len(grams))]
    for b, twin in zip(forms, twins):
        assert b.rank == twin.rank
        assert np.array_equal(b.kernel_basis, twin.kernel_basis)
        assert np.array_equal(b.pinv, twin.pinv)
        assert not b.pinv.flags.writeable
    assert calls == [(len(grams), dim, dim)]
    for b, twin in zip(forms, twins):
        assert np.array_equal(purge(b).purged_form.gram, purge(twin).purged_form.gram)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_form_stack_rows_equal_their_forms(dim, monkeypatch):
    """A FormStack of positive-definite, rank-deficient and indefinite
    Gram matrices reads each row's rank, pinv and kernel basis as
    HermitianForm of that row does, bit for bit, from one batched eigh;
    identity rows (all eigenvalue moduli tied) included."""
    rng = np.random.default_rng(np.random.SeedSequence([67, dim]))
    grams = [random_psd_form(rng, dim, rank).gram for rank in range(dim + 1)]
    grams += [random_hermitian_form(rng, dim, rank).gram for rank in range(dim + 1)]
    grams += [hermitize(3.0 * np.eye(dim)), hermitize(1e-3 * random_psd_form(rng, dim).gram)]
    points = np.arange(len(grams), dtype=complex)[:, None]
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for rank_tol in (charts.RANK_TOL, 1e-10):
        calls.clear()
        stack = FormStack(np.stack(grams), points, rank_tol)
        assert calls == []  # factorized on first read
        pinv = stack.pinv
        assert calls == [(len(grams), dim, dim)]
        for i, g in enumerate(grams):
            b = HermitianForm(g, rank_tol=rank_tol)
            assert stack.rank[i] == b.rank
            assert np.array_equal(pinv[i], b.pinv)
            assert np.array_equal(stack.kernel_basis(i), b.kernel_basis)


def test_form_stack_names_the_first_non_finite_row():
    """A NaN or inf row raises the NonFinite that charts.forms_of raises
    for the same rows: the first bad point named."""
    rng = np.random.default_rng(71)
    grams = np.stack([random_psd_form(rng, 2).gram for _ in range(5)])
    grams[3, 0, 1] = np.nan
    grams[4, 1, 1] = np.inf
    points = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    with pytest.raises(NonFinite) as want:
        charts.forms_of(grams, points)
    with pytest.raises(NonFinite) as got:
        FormStack(grams, points, charts.RANK_TOL)
    assert str(got.value) == str(want.value)
    assert np.array2string(points[3], precision=3) in str(got.value)


def test_adjoint_stack_equals_adjoint_row_by_row():
    """Each adjoint of a stack of maps between the rows of two form stacks,
    positive-definite and degenerate, equals adjoint of that row bit for
    bit, with or without an extra axis of maps per row; a map that sends
    a row's Ker b_V outside Ker b_W raises NoAdjoint."""
    rng = np.random.default_rng(73)
    bv = [random_psd_form(rng, 3, rank) for rank in (3, 2, 2, 1)]
    bw = [random_psd_form(rng, 2, rank) for rank in (2, 1, 2, 2)]
    maps = []
    for b in bv:
        x = rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3))
        kv = b.kernel_basis
        maps.append(x - x @ kv @ kv.conj().T)  # Ker b_V to 0
    maps = np.stack(maps)
    points = np.zeros((len(bv), 1), dtype=complex)
    stack_v = FormStack(np.stack([b.gram for b in bv]), points, bv[0].rank_tol)
    stack_w = FormStack(np.stack([b.gram for b in bw]), points, bw[0].rank_tol)
    one = adjoint_stack(maps[:, 0], stack_v, stack_w)
    two = adjoint_stack(maps, stack_v, stack_w)
    for i in range(len(bv)):
        want = [adjoint(LinearMap(f), bv[i], bw[i]).matrix for f in maps[i]]
        assert np.array_equal(one[i], want[0])
        assert np.array_equal(two[i], np.stack(want))
    bad = maps[:, 0].copy()
    bad[2] = rng.standard_normal((2, 3))
    assert not admits_adjoint(LinearMap(bad[2]), bv[2], bw[2])
    with pytest.raises(NoAdjoint):
        adjoint_stack(bad, stack_v, stack_w)


# ---------------------------------------------------------------------------
# kernel / purge


def test_kernel_diagonal_with_zero():
    k = kernel(form([[1, 0], [0, 0]]))
    assert k.dim == 1
    assert same_span(k.basis, np.array([[0.0], [1.0]]))


def test_kernel_nondegenerate_is_zero():
    assert kernel(form(np.eye(3))).dim == 0


def test_kernel_rank_one_two_by_two():
    k = kernel(form([[1, 1], [1, 1]]))
    assert k.dim == 1
    assert same_span(k.basis, np.array([[1.0], [-1.0]]) / np.sqrt(2))


def test_purge_diagonal():
    res = purge(form([[1, 0], [0, 0]]))
    assert res.purged_form.dim == 1
    assert abs(res.purged_form.gram[0, 0] - 1.0) < 1e-12
    assert res.quotient_map.rows == 1


def test_purge_nondegenerate_is_congruence():
    b = form([[2, 1j], [-1j, 3]])
    res = purge(b)
    assert res.purged_form.dim == 2
    q = res.quotient_map.matrix
    c = q.conj().T
    # quotient map is invertible and reproduces b by congruence
    assert np.linalg.norm(c @ res.purged_form.gram @ q - b.gram) < 1e-10


def test_purge_rank_one():
    res = purge(form([[1, 1], [1, 1]]))
    assert res.purged_form.dim == 1
    assert abs(res.purged_form.gram[0, 0] - 2.0) < 1e-12


def test_purge_is_hermitian_morphism():
    rng = np.random.default_rng(5)
    for _ in range(20):
        b = random_hermitian_form(rng, 4, rank=rng.integers(1, 5))
        res = purge(b)
        q = res.quotient_map.matrix
        lhs = q.conj().T @ res.purged_form.gram @ q
        # b-hat(qx, conj(qy)) recovers b(x, conj(y)) on every basis pair
        assert np.linalg.norm(lhs - b.gram) < 1e-10


# ---------------------------------------------------------------------------
# adjoints


def test_admits_adjoint_kernel_killing_map():
    bV = form([[1, 0], [0, 0]])
    bW = form([[1]])
    assert admits_adjoint(LinearMap([[1, 0]]), bV, bW)


def test_admits_adjoint_fails_on_kernel_escape():
    bV = form([[1, 0], [0, 0]])
    bW = form([[1]])
    assert not admits_adjoint(LinearMap([[0, 1]]), bV, bW)


def test_admits_adjoint_trivial_when_nondegenerate():
    rng = np.random.default_rng(0)
    bV = random_psd_form(rng, 3)
    bW = random_psd_form(rng, 2)
    f = LinearMap(rng.standard_normal((2, 3)))
    assert admits_adjoint(f, bV, bW)


def test_adjoint_minimum_norm_representative():
    bV = form([[1, 0], [0, 0]])
    bW = form([[1]])
    fdag = adjoint(LinearMap([[1, 0]]), bV, bW)
    assert np.allclose(fdag.matrix, [[1.0], [0.0]])


def test_adjoint_identity_map():
    b = form([[2, 0.5], [0.5, 1]])
    fdag = adjoint(LinearMap(np.eye(2)), b, b)
    assert np.linalg.norm(fdag.matrix - np.eye(2)) < 1e-12


def test_adjoint_standard_inner_product_is_conj_transpose():
    rng = np.random.default_rng(1)
    f = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    b2 = form(np.eye(2))
    b3 = form(np.eye(3))
    fdag = adjoint(LinearMap(f), b2, b3)
    assert np.linalg.norm(fdag.matrix - f.conj().T) < 1e-12


def test_adjoint_raises_without_kernel_compatibility():
    bV = form([[1, 0], [0, 0]])
    bW = form([[1]])
    with pytest.raises(NoAdjoint):
        adjoint(LinearMap([[0, 1]]), bV, bW)


def test_freedom_dims_degenerate_example():
    bV = form([[1, 0], [0, 0]])
    bW = form([[1]])
    torsor, codim = adjoint_freedom_dims(LinearMap([[1, 0]]), bV, bW)
    assert torsor == 1
    assert codim == 1


def test_freedom_dims_nondegenerate():
    rng = np.random.default_rng(2)
    bV = random_psd_form(rng, 3)
    bW = random_psd_form(rng, 2)
    torsor, codim = adjoint_freedom_dims(LinearMap(np.zeros((2, 3))), bV, bW)
    assert (torsor, codim) == (0, 0)


def test_freedom_dims_two_dim_kernel():
    bV = form(np.diag([1, 0, 0]))
    bW = form(np.diag([1, 0]))
    _, codim = adjoint_freedom_dims(LinearMap(np.zeros((2, 3))), bV, bW)
    assert codim == 2


# ---------------------------------------------------------------------------
# orthogonal complements


def test_orthogonal_complement_metric_line():
    b = form([[1, 0], [0, 0]])
    s = Subspace(2, np.array([[1.0], [0.0]]))
    perp = orthogonal_complement(s, b)
    assert same_span(perp.basis, np.array([[0.0], [1.0]]))


def test_orthogonal_complement_kernel_line_is_everything():
    b = form([[1, 0], [0, 0]])
    s = Subspace(2, np.array([[0.0], [1.0]]))
    assert orthogonal_complement(s, b).dim == 2


def test_orthogonal_complement_standard():
    rng = np.random.default_rng(3)
    basis = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    s = Subspace(4, basis)
    perp = orthogonal_complement(s, form(np.eye(4)))
    assert perp.dim == 2
    assert np.linalg.norm(s.basis.conj().T @ perp.basis) < 1e-10


# ---------------------------------------------------------------------------
# quotient forms


def test_quotient_form_weighted_line():
    bV = form(np.diag([1, 2]))
    q = quotient_form(LinearMap([[1, -1]]), bV)
    assert abs(q.gram[0, 0] - 2.0 / 3.0) < 1e-12


def test_quotient_form_coordinate_projection():
    q = quotient_form(LinearMap([[1, 0]]), form(np.eye(2)))
    assert abs(q.gram[0, 0] - 1.0) < 1e-12


def test_quotient_form_kernel_drops_to_zero():
    q = quotient_form(LinearMap([[0, 1]]), form(np.diag([1, 0])))
    assert abs(q.gram[0, 0]) < 1e-12


def test_quotient_form_requires_surjectivity():
    with pytest.raises(NotSurjective):
        quotient_form(LinearMap([[1, 1], [1, 1]]), form(np.eye(2)))


# ---------------------------------------------------------------------------
# hom form


def test_hom_form_purged_identity():
    bV = form([[1, 0], [0, 0]])
    bW = form([[1]])
    f = LinearMap([[1, 0]])
    assert abs(hom_form(f, f, bV, bW) - 1.0) < 1e-12


def test_hom_form_zero_map():
    bV = form([[1, 0], [0, 0]])
    bW = form([[1]])
    f = LinearMap([[1, 0]])
    g = LinearMap([[0, 0]])
    assert abs(hom_form(f, g, bV, bW)) < 1e-12


def test_hom_form_trace_of_identity():
    b = form(np.eye(2))
    f = LinearMap(np.eye(2))
    assert abs(hom_form(f, f, b, b) - 2.0) < 1e-12


def test_hom_form_hermitian_pairing():
    rng = np.random.default_rng(4)
    bV = random_psd_form(rng, 3, rank=2)
    bW = random_psd_form(rng, 3)
    kv = kernel(bV).basis
    proj = np.eye(3) - kv @ kv.conj().T
    f = LinearMap((rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) @ proj)
    g = LinearMap((rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) @ proj)
    assert abs(hom_form(f, g, bV, bW) - np.conj(hom_form(g, f, bV, bW))) < 1e-10


# ---------------------------------------------------------------------------
# sum and limit forms


def test_sum_quotient_scalar():
    q = sum_quotient_form(form([[1]]), form([[2]]))
    assert abs(q.gram[0, 0] - 2.0 / 3.0) < 1e-12


def test_sum_quotient_with_zero_summand():
    rng = np.random.default_rng(6)
    b1 = random_psd_form(rng, 3)
    b2 = HermitianForm(np.zeros((3, 3)))
    q = sum_quotient_form(b1, b2)
    assert np.linalg.norm(q.gram) < 1e-12


def test_sum_quotient_complementary_kernels():
    q = sum_quotient_form(form(np.diag([1, 0])), form(np.diag([0, 1])))
    assert np.linalg.norm(q.gram) < 1e-12


def test_sum_quotient_needs_positive_sum():
    with pytest.raises(NotPositive):
        sum_quotient_form(form(np.diag([1, 0])), form(np.diag([0, 0])))


def test_limit_form_scalar():
    q_vals, q_inf = limit_form(form([[1]]), form([[2]]), [0.0])
    assert abs(q_vals[0].gram[0, 0] - 2.0 / 3.0) < 1e-12
    assert abs(q_inf.gram[0, 0] - 1.0) < 1e-10


def test_limit_form_zero_b2():
    rng = np.random.default_rng(7)
    b1 = random_psd_form(rng, 2)
    q_vals, q_inf = limit_form(b1, HermitianForm(np.zeros((2, 2))), [0.0, 2.0])
    for q in q_vals:
        assert np.linalg.norm(q.gram) < 1e-12
    assert np.linalg.norm(q_inf.gram) < 1e-10


def test_limit_form_diagonal_limit():
    q_vals, q_inf = limit_form(form(np.diag([1, 3])), form(np.diag([2, 0])), [2.0])
    assert np.linalg.norm(q_inf.gram - np.diag([1.0, 0.0])) < 1e-10


# Relative bound, against 1 + the oracle's norm, between limit_form's
# Cholesky reduction and scipy's generalized eigensolve.
LIMIT_ORACLE_TOL = 1e-12


def scipy_limit_gram(b1, b2):
    """The limit of the quotient family by scipy.linalg.eigh(b1, h0): the
    generalized eigensolve that limit_form reduces to numpy's eigh."""
    import scipy.linalg

    h0 = b1.gram + b2.gram
    x, v = scipy.linalg.eigh(b1.gram, h0)
    coeff = np.where(np.abs(1.0 - x) > LIMIT_COEFF_CUT, x, 0.0)
    hv = h0 @ v
    return hermitize(hv @ np.diag(coeff) @ hv.conj().T)


def _oracle_gap(q_inf, b1, b2):
    oracle = scipy_limit_gram(b1, b2)
    return np.linalg.norm(q_inf.gram - oracle) / (1.0 + np.linalg.norm(oracle))


def test_limit_form_equals_the_scipy_generalized_eigensolve_on_balanced_pairs():
    rng = np.random.default_rng(np.random.SeedSequence([47]))
    for _ in range(40):
        b1, b2 = balanced_limit_pair(rng, int(rng.integers(2, 6)))
        _, q_inf = limit_form(b1, b2, [2.0])
        assert _oracle_gap(q_inf, b1, b2) <= LIMIT_ORACLE_TOL


@pytest.mark.parametrize("model_id", ["hirz:1", "hirz:2", "prod:fs1:fs1"])
def test_limit_form_equals_the_scipy_generalized_eigensolve_on_fibrations(model_id):
    """At points of the 0.7 region with |w| >= 0.2, and on the zero
    section w = 0 where the rank of b1 drops on the Hirzebruch models."""
    model = resolve_model(model_id).fibration
    rng = np.random.default_rng(np.random.SeedSequence([48]))
    points = [np.array([0.3 - 0.2j, 0.0])]
    for _ in range(5):
        zb = 0.7 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        zw = rng.uniform(0.2, 0.7) * np.exp(2j * np.pi * rng.random())
        points.append(np.array([zb, zw]))
    for z in points:
        rec = q_lambda_limit(model, z)
        b1, b2 = model.b1_field.form_at(z), model.b2_field.form_at(z)
        assert _oracle_gap(rec.q_inf, b1, b2) <= LIMIT_ORACLE_TOL


def test_limit_form_exponential_decay():
    rng = np.random.default_rng(8)
    tested = 0
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        b1, b2 = balanced_limit_pair(rng, dim)
        lams = [2.0, 4.0, 6.0, 8.0]
        q_vals, q_inf = limit_form(b1, b2, lams)
        errs = [np.linalg.norm(q.gram - q_inf.gram) for q in q_vals]
        if max(errs) < 1e-13:
            continue  # exact limit, nothing to rate-test
        tested += 1
        for a, b in zip(errs, errs[1:]):
            ratio = b / a
            assert 0.8 * np.exp(-2.0) <= ratio <= 1.2 * np.exp(-2.0)
    assert tested >= 5


# ---------------------------------------------------------------------------
# equivalence mod kernel


def test_equiv_mod_kernel_difference_in_kernel():
    b = form(np.diag([1, 0]))
    assert equiv_mod_kernel([1, 5], [1, -3], b)


def test_equiv_mod_kernel_nondegenerate():
    assert not equiv_mod_kernel([1, 0], [0, 1], form(np.eye(2)))


def test_equiv_mod_kernel_rank_one():
    b = form([[1, 1], [1, 1]])
    assert equiv_mod_kernel([2, 0], [1, 1], b)


# ---------------------------------------------------------------------------
# property suites (seeded)


def _random_adjointable(rng, bV, bW):
    kv = kernel(bV).basis
    kw = kernel(bW).basis
    f0 = rng.standard_normal((bW.dim, bV.dim)) + 1j * rng.standard_normal((bW.dim, bV.dim))
    f = f0 @ (np.eye(bV.dim) - kv @ kv.conj().T)
    if kv.shape[1] and kw.shape[1]:
        c = rng.standard_normal((kw.shape[1], kv.shape[1])) + 1j * rng.standard_normal(
            (kw.shape[1], kv.shape[1])
        )
        f = f + kw @ c @ kv.conj().T
    return LinearMap(f)


def test_adjoint_defining_identity_100_instances():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        dv = int(rng.integers(1, 7))
        dw = int(rng.integers(1, 7))
        bV = random_hermitian_form(rng, dv, rank=int(rng.integers(1, dv + 1)))
        bW = random_hermitian_form(rng, dw, rank=int(rng.integers(1, dw + 1)))
        f = _random_adjointable(rng, bV, bW)
        fd = adjoint(f, bV, bW).matrix
        # max |b_V(f_dag x, conj(y)) - b_W(x, conj(f y))| over basis pairs
        resid = np.max(np.abs(bV.gram @ fd - f.matrix.conj().T @ bW.gram))
        worst = max(worst, resid / (1.0 + np.linalg.norm(f.matrix)))
    assert worst <= 1e-9


def test_adjoint_torsor_100_instances():
    rng = np.random.default_rng(101)
    for _ in range(100):
        dv = int(rng.integers(2, 7))
        bV = random_hermitian_form(rng, dv, rank=int(rng.integers(1, dv)))
        bW = random_hermitian_form(rng, int(rng.integers(1, 5)))
        f = _random_adjointable(rng, bV, bW)
        fd = adjoint(f, bV, bW).matrix
        kv = kernel(bV).basis
        pert = kv @ (
            rng.standard_normal((kv.shape[1], bW.dim))
            + 1j * rng.standard_normal((kv.shape[1], bW.dim))
        )
        other = fd + pert
        # the perturbed map is still an adjoint ...
        assert np.max(np.abs(bV.gram @ other - f.matrix.conj().T @ bW.gram)) < 1e-8
        # ... and the two differ by a map into Ker b_V
        diff = other - fd
        assert np.linalg.norm(diff - kv @ (kv.conj().T @ diff)) < 1e-10


def test_double_adjoint_100_instances():
    rng = np.random.default_rng(102)
    for _ in range(100):
        dv = int(rng.integers(1, 6))
        dw = int(rng.integers(1, 6))
        bV = random_hermitian_form(rng, dv, rank=int(rng.integers(1, dv + 1)))
        bW = random_hermitian_form(rng, dw, rank=int(rng.integers(1, dw + 1)))
        f = _random_adjointable(rng, bV, bW)
        fd = adjoint(f, bV, bW)
        assert admits_adjoint(fd, bW, bV)
        fdd = adjoint(fd, bW, bV).matrix
        diff = fdd - f.matrix
        kw = kernel(bW).basis
        # f_dagdag agrees with f modulo Ker b_W
        assert np.linalg.norm(diff - kw @ (kw.conj().T @ diff)) < 1e-8 * (
            1.0 + np.linalg.norm(f.matrix)
        )


def test_decomposition_identity_100_instances():
    rng = np.random.default_rng(103)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        b = random_hermitian_form(rng, dim, rank=int(rng.integers(1, dim + 1)))
        d = int(rng.integers(1, dim + 1))
        basis = rng.standard_normal((dim, d)) + 1j * rng.standard_normal((dim, d))
        s = Subspace(dim, basis)
        perp = orthogonal_complement(s, b)
        joint = np.hstack([s.basis, perp.basis])
        sv = np.linalg.svd(joint, compute_uv=False)
        dim_sum = int(np.sum(sv > 1e-9 * sv[0]))
        dim_int = s.dim + perp.dim - dim_sum
        assert dim_sum == dim  # S + S_perp is everything
        # S intersect S_perp = S intersect Ker b
        kb = kernel(b).basis
        joint2 = np.hstack([s.basis, kb]) if kb.shape[1] else s.basis
        sv2 = np.linalg.svd(joint2, compute_uv=False)
        dim_int_kernel = s.dim + kb.shape[1] - int(np.sum(sv2 > 1e-9 * sv2[0]))
        assert dim_int == dim_int_kernel


def test_quotient_lift_independence_100_instances():
    rng = np.random.default_rng(104)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        rows = int(rng.integers(1, dim))
        b = random_hermitian_form(rng, dim, rank=int(rng.integers(1, dim + 1)))
        q = rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))
        # quotient_form re-checks the lift internally; just exercise it
        quotient_form(LinearMap(q), b)


def test_sum_quotient_kernel_containment_100_instances():
    rng = np.random.default_rng(105)
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        r1 = int(rng.integers(1, dim + 1))
        b1 = random_psd_form(rng, dim, rank=r1)
        b2 = random_psd_form(rng, dim)
        q = sum_quotient_form(b1, b2)
        assert q.is_positive_semidefinite()
        for b in (b1, b2):
            kb = kernel(b).basis
            if kb.shape[1]:
                assert np.linalg.norm(q.gram @ kb) < 1e-9


@given(st.integers(min_value=-50, max_value=50), st.integers(min_value=-50, max_value=50))
@settings(max_examples=30, deadline=None)
def test_equiv_mod_kernel_shift_invariance(a, b):
    bform = form(np.diag([1, 0]))
    s = np.array([1.0, float(a)])
    t = np.array([1.0, float(b)])
    assert equiv_mod_kernel(s, t, bform)


@given(st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=30, deadline=None)
def test_sum_quotient_scaling(c):
    # scaling both summands scales the induced form
    b1 = form([[1.0]])
    b2 = form([[2.0]])
    q = sum_quotient_form(b1, b2)
    qc = sum_quotient_form(b1.scaled(c), b2.scaled(c))
    assert abs(qc.gram[0, 0] - c * q.gram[0, 0]) < 1e-10
