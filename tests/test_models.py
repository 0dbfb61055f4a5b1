from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hermitia import ConfigError, NotPositive, NotPositiveAtPoint, models
from hermitia.charts import curvature_tensor, hsc, hsc_of_tensor
from hermitia.fields import (
    MatrixPolynomial,
    constant_field,
    from_factor,
    from_potential_map,
    fs_monomials,
    twisted_fiber_monomials,
)
from hermitia.instances import random_degenerate_field
from hermitia.models import (
    DEFAULT_GR_REGION,
    GrassmannChartModel,
    _refine_direction,
    _sample_polydisc,
    _unit_directions,
    einstein_residual,
    fubini_study_chart,
    grassmannian_chart,
    hsc_extremes,
    pluecker_gap,
    pluecker_monomials,
    pluecker_pullback,
    resolve_model,
    ricci,
)

from oracles import grassmann_gram, hsc_gradient, point_draw, point_scan, refine_direction_walk


@pytest.fixture(scope="module")
def gr24():
    return grassmannian_chart(2, 4)


@pytest.fixture(scope="module")
def fs1():
    return fubini_study_chart(1)


@pytest.fixture(scope="module")
def fs2():
    return fubini_study_chart(2)


def fs_gram_closed_form(z):
    """(delta_ab (1 + |z|^2) - z_a conj(z_b)) / (1 + |z|^2)^2."""
    z = np.asarray(z, dtype=complex)
    s = 1.0 + np.vdot(z, z).real
    return (np.eye(len(z)) * s - np.outer(z, z.conj())) / s**2


def sample_points(m, n_points, scale=0.5, seed=11):
    rng = np.random.default_rng(seed)
    return scale * (rng.uniform(-1, 1, (n_points, m)) + 1j * rng.uniform(-1, 1, (n_points, m)))


# ---------------------------------------------------------------------------
# projective space


def test_fs_gram_closed_form(fs2):
    for z in sample_points(2, 6):
        assert np.linalg.norm(fs2.gram(z) - fs_gram_closed_form(z)) < 1e-12


def test_fs_line_is_scalar_inverse_square(fs1):
    z = np.array([0.4 - 0.2j])
    want = (1.0 + abs(z[0]) ** 2) ** -2
    assert abs(fs1.gram(z).item() - want) < 1e-14


def test_fs_rejects_bad_dimension():
    with pytest.raises(ConfigError):
        fubini_study_chart(0)


# ---------------------------------------------------------------------------
# minor coordinates


def test_minor_count_matches_binomial():
    assert len(pluecker_monomials(2, 4).components) == 6
    assert len(pluecker_monomials(2, 5).components) == 10


def test_minors_match_determinants():
    import itertools

    k, n = 2, 4
    mono = pluecker_monomials(k, n)
    rng = np.random.default_rng(3)
    for _ in range(3):
        z = 0.5 * (rng.standard_normal(k * (n - k)) + 1j * rng.standard_normal(k * (n - k)))
        frame = np.hstack([np.eye(k), z.reshape(k, n - k)])
        want = sorted(
            np.linalg.det(frame[:, cols]) for cols in itertools.combinations(range(n), k)
        )
        got = sorted(mono.jet(z, 0)[0])
        assert np.allclose(got, want, atol=1e-12)


def test_pluecker_pullback_rejects_bad_shape():
    with pytest.raises(ConfigError):
        pluecker_pullback(3, 3)


# ---------------------------------------------------------------------------
# the closed-form chart metric


def test_grassmann_gram_is_identity_at_center(gr24):
    assert np.allclose(gr24.field.gram(np.zeros(4)), np.eye(4))


def test_grassmann_closed_form_matches_minor_route(gr24):
    oracle = pluecker_pullback(2, 4)
    for z in sample_points(4, 20, scale=0.7, seed=23):
        g1, g2 = gr24.field.gram(z), oracle.gram(z)
        assert np.linalg.norm(g1 - g2) <= 1e-8 * (1 + np.linalg.norm(g2))


def test_grassmann_closed_form_matches_minor_route_2_5():
    model = grassmannian_chart(2, 5)
    oracle = pluecker_pullback(2, 5)
    for z in sample_points(6, 5, scale=0.6, seed=29):
        g1, g2 = model.field.gram(z), oracle.gram(z)
        assert np.linalg.norm(g1 - g2) <= 1e-8 * (1 + np.linalg.norm(g2))


def test_pluecker_gap_reads_the_minor_route_grams(gr24):
    """The gap's own field of the minor potential (built without the
    derivative self-check) reads the Grams of pluecker_pullback."""
    points = sample_points(4, 6, scale=0.7, seed=31)
    oracle = pluecker_pullback(2, 4)
    want = max(
        float(np.linalg.norm(gr24.field.gram(z) - oracle.gram(z)) / (1.0 + np.linalg.norm(oracle.gram(z))))
        for z in points
    )
    assert pluecker_gap(gr24.field, 2, 4, points) == want


def _rel(got, want):
    return np.linalg.norm(got - want) / (1.0 + np.linalg.norm(want))


@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 4), (2, 5), (3, 5)])
def test_grassmann_derivatives_match_minor_route(k, n):
    field = grassmannian_chart(k, n, certify=False).field
    oracle = pluecker_pullback(k, n)
    for z in sample_points(k * (n - k), 4, scale=0.5, seed=100 * k + n):
        assert _rel(field.gram(z), oracle.gram(z)) <= 1e-8
        assert _rel(field.d(z), oracle.d(z)) <= 1e-8
        assert _rel(field.dd(z), oracle.dd(z)) <= 1e-8


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5), (3, 6)])
def test_stacked_grassmann_gram_equals_per_point_reads(k, n):
    field = grassmannian_chart(k, n, certify=False).field
    m = k * (n - k)
    rng = np.random.default_rng(np.random.SeedSequence([89, k, n]))
    for _ in range(20):
        zs = 0.7 * (rng.uniform(-1, 1, (4 * m + 1, m)) + 1j * rng.uniform(-1, 1, (4 * m + 1, m)))
        stacked = field.stack_fn(zs)
        assert np.array_equal(stacked, np.stack([grassmann_gram(z, k, n) for z in zs]))
        assert np.array_equal(field.gram_stack(zs), np.stack([field.gram(z) for z in zs]))
        grams = field.gram_stack(zs)
        assert np.array_equal(np.linalg.eigvalsh(grams), np.stack([np.linalg.eigvalsh(g) for g in grams]))


def _potential_jet_reference(w, jac, hess):
    """The whole 2-jet of d dbar log ||w||^2 in one pass: gram, d_gram, dd_gram."""
    f = float(np.real(np.vdot(w, w)))
    cw = w.conj()
    cj = jac.conj()
    fa = np.einsum("ia,i->a", jac, cw)
    fab = np.einsum("ia,ib->ab", jac, cj)
    faa = np.einsum("iag,i->ag", hess, cw)
    faab = np.einsum("iag,ib->agb", hess, cj)
    fabd = np.einsum("ia,ibd->abd", jac, hess.conj())
    faabb = np.einsum("iag,ibd->agbd", hess, hess.conj())
    cfa = fa.conj()

    t2 = fab / f - np.einsum("a,b->ab", fa, cfa) / f**2

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
    return t2.T, t3.transpose(1, 2, 0), t4.transpose(1, 3, 2, 0)


@pytest.mark.parametrize(
    "mono_map",
    [fs_monomials(2), twisted_fiber_monomials(1)],
    ids=["fs:2", "hirz:1"],
)
def test_potential_reads_match_the_full_jet(mono_map):
    """Each order-specific evaluator returns what the one-pass 2-jet returns."""
    field = from_potential_map(mono_map, radius=2.0)
    for z in sample_points(2, 4, scale=0.6, seed=47):
        gram, d_gram, dd_gram = _potential_jet_reference(*mono_map.jet(z, 2))
        assert np.array_equal(field.stack_fn(z[None])[0], gram)
        assert _rel(field.d(z), d_gram) <= 1e-12
        assert _rel(field.dd(z), dd_gram) <= 1e-12


def test_projective_line_is_one_plane_grassmannian(fs1):
    model = grassmannian_chart(1, 2)
    for z in sample_points(1, 10, scale=0.8, seed=31):
        assert abs(model.field.gram(z).item() - fs1.gram(z).item()) < 1e-10


def test_projective_plane_is_one_plane_grassmannian(fs2):
    model = grassmannian_chart(1, 3)
    for z in sample_points(2, 10, scale=0.8, seed=37):
        assert np.linalg.norm(model.field.gram(z) - fs2.gram(z)) < 1e-10
        assert np.linalg.norm(model.field.dd(z) - fs2.dd(z)) < 1e-9


def test_grassmann_model_indexing(gr24):
    assert gr24.m == 4
    assert gr24.flat_index(1, 1) == 3
    v = gr24.direction([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(v, [1.0, 2.0, 3.0, 4.0])
    assert gr24.hsc_lower == 1.0
    assert gr24.hsc_upper == 2.0


def test_grassmann_rejects_bad_shape():
    with pytest.raises(ConfigError):
        grassmannian_chart(4, 4)


# ---------------------------------------------------------------------------
# sectional curvature of the models


def test_rank_one_direction_attains_the_top(gr24):
    v = gr24.direction([[1.0, 0.0], [0.0, 0.0]])
    assert abs(hsc(gr24.field, np.zeros(4), v) - 2.0) < 1e-12


def test_balanced_direction_attains_the_bottom(gr24):
    v = gr24.direction(np.eye(2) / np.sqrt(2))
    assert abs(hsc(gr24.field, np.zeros(4), v) - 1.0) < 1e-12


@pytest.mark.parametrize("k,n", [(1, 3), (2, 4), (2, 5), (3, 6)])
def test_center_curvature_follows_the_singular_values(k, n):
    """At Z = 0, H along U diag(s) V* is 2 sum(s^4) / (sum(s^2))^2, whatever
    the rank of the direction; equal singular values of full rank r give
    the declared lower bound 2 / r."""
    model = grassmannian_chart(k, n, certify=False)
    r = min(k, n - k)
    rng = np.random.default_rng(np.random.SeedSequence([53, k, n]))
    u = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))[0]
    v = np.linalg.qr(
        rng.standard_normal((n - k, n - k)) + 1j * rng.standard_normal((n - k, n - k))
    )[0]
    center = np.zeros(model.m)
    for rank in range(1, r + 1):
        s = np.zeros(r)
        s[:rank] = rng.uniform(0.5, 2.0, rank)
        direction = u[:, :r] @ np.diag(s) @ v[:, :r].conj().T
        want = 2.0 * np.sum(s**4) / np.sum(s**2) ** 2
        assert abs(hsc(model.field, center, model.direction(direction)) - want) < 1e-12
    balanced = u[:, :r] @ v[:, :r].conj().T
    assert abs(hsc(model.field, center, model.direction(balanced)) - model.hsc_lower) < 1e-12


# Bound on |H - 2 sum(s^4) / (sum(s^2))^2| away from the centre, fixed
# before the first run.
GRASSMANN_H_TOL = 1e-12


def _inverse_sqrt(a):
    w, u = np.linalg.eigh(a)
    return (u / np.sqrt(w)) @ u.conj().T


GRASSMANN_PAIRS = [(k, n) for n in range(2, 7) for k in range(1, n)]


@lru_cache(maxsize=None)
def _grassmann(k, n):
    return grassmannian_chart(k, n, certify=False)


@pytest.mark.parametrize("k,n", GRASSMANN_PAIRS)
def test_origin_tensor_is_the_unit_matrix_formula(k, n):
    """At the centre of the chart, R_abst = tr(E_a E_b^H E_s E_t^H)
    + tr(E_b^H E_a E_t^H E_s), with E_a the k x (n - k) unit matrix of
    coordinate a: the curvature of Gr(k, n) at the identity coset, read
    without the log-det jet.  Every entry is a small integer, which the
    jet reads exactly."""
    model = _grassmann(k, n)
    e = np.eye(model.m).reshape(model.m, k, n - k)
    want = np.einsum("aij,bkj,skl,til->abst", e, e, e, e) + np.einsum(
        "bji,ajk,tlk,sli->abst", e, e, e, e
    )
    assert np.array_equal(curvature_tensor(model.field, np.zeros(model.m)).tensor, want)


# the moduli and phases (over pi) of a point's m coordinates, then the real
# and imaginary parts of a direction, m <= 9
UNIT_COORDS = st.lists(st.floats(-1.0, 1.0), min_size=36, max_size=36)


@pytest.mark.parametrize("k,n", GRASSMANN_PAIRS)
@settings(max_examples=10, deadline=None)
@given(coords=UNIT_COORDS)
def test_off_centre_curvature_follows_the_moved_singular_values(k, n, coords):
    """The isometry moving Z0 to the centre has differential X -> P X Q,
    with P = (I + Z0 Z0^H)^(-1/2) and Q = (I + Z0^H Z0)^(-1/2), so H(Z0, X)
    = 2 sum(s^4) / (sum(s^2))^2 over the singular values s of P X Q.  This
    checks H on the scan's tensor, at points of the scan's polydisc and
    any nonzero direction, without the log-det jet that builds the
    tensor."""
    model = _grassmann(k, n)
    m = model.m
    x = np.asarray(coords).reshape(4, 9)[:, :m]
    z = DEFAULT_GR_REGION * x[0] * np.exp(1j * np.pi * x[1])
    v = x[2] + 1j * x[3]
    assume(np.linalg.norm(v) > 1e-3)
    curv = curvature_tensor(model.field, z)
    h = hsc_of_tensor(curv.tensor, curv.form.gram, v)
    z0 = z.reshape(k, n - k)
    p = _inverse_sqrt(np.eye(k) + z0 @ z0.conj().T)
    q = _inverse_sqrt(np.eye(n - k) + z0.conj().T @ z0)
    s = np.linalg.svd(p @ v.reshape(k, n - k) @ q, compute_uv=False)
    assert abs(h - 2.0 * np.sum(s**4) / np.sum(s**2) ** 2) <= GRASSMANN_H_TOL


def test_sampled_directions_stay_in_the_window(gr24):
    rng = np.random.default_rng(41)
    for z in sample_points(4, 3, scale=0.6, seed=43):
        for _ in range(10):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            h = hsc(gr24.field, z, v)
            assert 1.0 - 1e-9 <= h <= 2.0 + 1e-9


def test_fs_extremes_are_constant(fs1):
    scan = hsc_extremes(fs1, region=0.9, samples=100, optimizer_steps=20, seed=0)
    assert abs(scan.min_H - 2.0) < 1e-8
    assert abs(scan.max_H - 2.0) < 1e-8


def test_flat_extremes_are_zero():
    flat = constant_field(np.eye(2), 2, radius=2.0)
    scan = hsc_extremes(flat, region=0.9, samples=60, optimizer_steps=10, seed=0)
    assert abs(scan.min_H) < 1e-12
    assert abs(scan.max_H) < 1e-12


def test_grassmann_scan_finds_the_window(gr24):
    scan = hsc_extremes(gr24.field, region=0.7, samples=400, optimizer_steps=60, seed=0)
    assert abs(scan.max_H - 2.0) < 1e-3
    assert abs(scan.min_H - 1.0) < 1e-3


def test_scan_rerun_is_identical_and_a_thread_count_is_rejected(gr24):
    first = hsc_extremes(gr24.field, region=0.7, samples=200, optimizer_steps=25, seed=5)
    again = hsc_extremes(gr24.field, region=0.7, samples=200, optimizer_steps=25, seed=5, threads=None)
    assert first.min_H == again.min_H
    assert first.max_H == again.max_H
    assert np.array_equal(first.argmin[0], again.argmin[0])
    assert np.array_equal(first.argmax[1], again.argmax[1])
    with pytest.raises(ConfigError, match="threads"):
        hsc_extremes(gr24.field, region=0.7, samples=200, optimizer_steps=25, seed=5, threads=3)


# Step of the central differences the closed-form direction gradient is
# checked against.
GRADIENT_FD_STEP = 1e-5


def _hsc_gradient_fd(tensor, g, v):
    """dH/dRe(v_k) + i dH/dIm(v_k) by central differences of H."""
    grad = np.zeros(v.size, dtype=complex)
    for k in range(v.size):
        e = np.zeros(v.size, dtype=complex)
        e[k] = GRADIENT_FD_STEP
        for unit in (1.0, 1j):
            diff = hsc_of_tensor(tensor, g, v + unit * e) - hsc_of_tensor(tensor, g, v - unit * e)
            grad[k] += unit * diff / (2 * GRADIENT_FD_STEP)
    return grad


def _h0_of_hirz1():
    from hermitia.fibration import h_lambda, hirzebruch_model

    return h_lambda(hirzebruch_model(1), 0.0)


def _hsc_einsum(tensor, g, v):
    """H(v) as one five-operand contraction: the reference for
    :func:`hsc_of_tensor`."""
    v = np.asarray(v, dtype=complex)
    vc = v.conj()
    num = np.einsum("abst,...a,...b,...s,...t->...", tensor, v, vc, v, vc)
    den = np.real(vc[..., None, :] @ g @ v[..., :, None])[..., 0, 0] ** 2
    return np.real(num) / den


def _hsc_gradient_einsum(tensor, g, v):
    """2 dH/dconj(v) from four index contractions: the reference for
    :func:`oracles.hsc_gradient`."""
    vc = v.conj()
    dn_dvbar = np.einsum("akst,a,s,t->k", tensor, v, v, vc) + np.einsum(
        "absk,a,b,s->k", tensor, v, vc, v
    )
    dn_dv = np.einsum("kbst,b,s,t->k", tensor, vc, v, vc) + np.einsum(
        "abkt,a,b,t->k", tensor, v, vc, vc
    )
    num = 0.5 * np.real(vc @ dn_dvbar)
    gv = g @ v
    den = np.real(vc @ gv)
    return (dn_dvbar + dn_dv.conj()) / den**2 - 4.0 * num * gv / den**3


def _random_curve_metric():
    """G = L^H L on one coordinate for a random holomorphic 3 x 1 column L:
    curved, unlike the square factor of ``random_pd_field`` at m = 1."""
    rng = np.random.default_rng(np.random.SeedSequence([61]))
    c = rng.standard_normal((2, 3, 1)) + 1j * rng.standard_normal((2, 3, 1))
    return from_factor(MatrixPolynomial(c[0], c1=c[1:]), 1, radius=2.0)


# Relative bound between the (m^2, m^2) products and the einsum references.
HSC_REFERENCE_TOL = 1e-13


@pytest.mark.parametrize(
    "make_field",
    [
        lambda: fubini_study_chart(2),
        lambda: grassmannian_chart(2, 4).field,
        lambda: grassmannian_chart(3, 6).field,
        _h0_of_hirz1,
        _random_curve_metric,
    ],
    ids=["fs:2", "gr:2:4", "gr:3:6", "hirz:1-h0", "random-m1"],
)
def test_direction_scoring_matches_the_einsum_references(make_field):
    """H and its gradient agree with the einsum contractions, relative to
    the size of H (the gradient is zero where H is constant, as on fs:2
    and at m = 1)."""
    field = make_field()
    rng = np.random.default_rng(np.random.SeedSequence([67, field.m]))
    for _ in range(3):
        curv = curvature_tensor(field, _sample_polydisc(rng, field.m, 0.6))
        t, g = curv.tensor, curv.form.gram
        dirs = _unit_directions(rng, field.m, 20)
        want = _hsc_einsum(t, g, dirs)
        scale = np.max(np.abs(want))
        assert scale > 0.0
        assert np.max(np.abs(hsc_of_tensor(t, g, dirs) - want)) <= HSC_REFERENCE_TOL * scale
        for v in dirs[:5]:
            want = _hsc_gradient_einsum(t, g, v)
            gap = np.linalg.norm(hsc_gradient(t, g, v) - want)
            assert gap <= HSC_REFERENCE_TOL * max(np.linalg.norm(want), scale)


@pytest.mark.parametrize(
    "make_field",
    [lambda: grassmannian_chart(2, 4).field, lambda: grassmannian_chart(2, 5).field, _h0_of_hirz1],
    ids=["gr:2:4", "gr:2:5", "hirz:1-h0"],
)
def test_direction_gradient_matches_central_differences(make_field):
    field = make_field()
    rng = np.random.default_rng(np.random.SeedSequence([47, field.m]))
    for _ in range(4):
        z = 0.6 * np.sqrt(rng.random(field.m)) * np.exp(2j * np.pi * rng.random(field.m))
        curv = curvature_tensor(field, z)
        g = curv.form.gram
        for _ in range(3):
            v = rng.standard_normal(field.m) + 1j * rng.standard_normal(field.m)
            v /= np.linalg.norm(v)
            exact = hsc_gradient(curv.tensor, g, v)
            fd = _hsc_gradient_fd(curv.tensor, g, v)
            assert np.linalg.norm(exact - fd) <= 1e-7 * np.linalg.norm(fd)


@lru_cache(maxsize=None)
def _walk_field(which):
    if which == "hirz:1-h0":
        return _h0_of_hirz1()
    return resolve_model(which).field


@settings(max_examples=25, deadline=None)
@given(
    which=st.sampled_from(["fs:2", "gr:2:4", "gr:3:6", "hirz:1-h0"]),
    seed=st.integers(0, 10**6),
    steps=st.sampled_from([40, 200]),
    sign=st.sampled_from([-1.0, 1.0]),
    region=st.just(0.7),
)
@example(which="gr:2:4", seed=0, steps=200, sign=-1.0, region=1.99)
@example(which="gr:2:4", seed=1, steps=200, sign=1.0, region=1.99)
def test_two_stage_line_search_equals_the_halving_walk(which, seed, steps, sign, region):
    """The walk that scores its first halving alone and then the other 19
    in one stack ends where the walk that tries them one at a time does,
    bit for bit, in direction and H; near the chart's edge too, where
    200 steps on gr:2:4 take both stages of the line search."""
    field = _walk_field(which)
    rng = np.random.default_rng(seed)
    curv = curvature_tensor(field, _sample_polydisc(rng, field.m, region))
    v0 = rng.standard_normal(field.m) + 1j * rng.standard_normal(field.m)
    v, h = _refine_direction(curv.tensor, curv.form.gram, v0, steps, sign)
    want_v, want_h = refine_direction_walk(curv.tensor, curv.form.gram, v0, steps, sign)
    assert np.array_equal(v, want_v)
    assert h == want_h


def test_an_ungated_scan_reads_each_point_by_its_own_curvature_call(gr24, monkeypatch):
    """hsc_extremes makes one models.curvature_tensor call per point and no
    block solve, and its result is the per-point scan's."""
    calls = {"curvature_tensor": 0, "FieldRows": 0}
    for name in calls:
        fn = getattr(models, name)

        def counting(*args, fn=fn, name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(models, name, counting)
    scan = hsc_extremes(gr24.field, region=0.7, samples=200, optimizer_steps=25, seed=5)
    assert calls == {"curvature_tensor": 10, "FieldRows": 0}
    (h_min, z_min, v_min), (h_max, z_max, v_max) = point_scan(
        gr24.field, 0.7, 10, 20, [5], 25, signs=(-1.0, 1.0)
    )
    assert (scan.min_H, scan.max_H) == (h_min, h_max)
    for got, want in zip(scan.argmin + scan.argmax, (z_min, v_min, z_max, v_max)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "scan,arguments,name",
    [
        ("hsc", {"directions_per_point": 0}, "directions_per_point"),
        ("hsc", {"samples": -5}, "samples"),
        ("hsc", {"samples": 0}, "samples"),
        ("hsc", {"optimizer_steps": -1}, "optimizer_steps"),
        ("hsc", {"region": -0.5}, "region"),
        ("hsc", {"region": 0.0}, "region"),
        ("hsc", {"region": np.inf}, "region"),
        ("lambda", {"region": np.nan}, "region"),
        ("lambda", {"margin": np.nan}, "margin"),
        ("lambda", {"margin": -np.inf}, "margin"),
        ("lambda", {"sphere_samples": 0}, "sphere_samples"),
        ("lambda", {"sphere_samples": -5}, "sphere_samples"),
    ],
)
def test_a_scan_argument_out_of_range_is_a_config_error(fs1, scan, arguments, name, monkeypatch, recwarn):
    """hsc_extremes and find_lambda0 raise ConfigError naming an argument
    out of its range (a count of samples or directions below 1, of steps
    below 0, a region not finite and > 0, a margin not finite) before any
    draw and with no warning."""
    from hermitia.fibration import find_lambda0, product_model

    def no_draw(*args):
        raise AssertionError("the scan drew before its arguments were checked")

    monkeypatch.setattr(models, "_draw", no_draw)
    with pytest.raises(ConfigError, match="^%s = " % name):
        if scan == "hsc":
            hsc_extremes(fs1, **{"region": 0.7, **arguments})
        else:
            find_lambda0(product_model(fs1, fs1), **arguments)
    assert not recwarn.list


def test_the_least_scan_arguments_run(fs1):
    """One sample, one direction and no step is a scan."""
    scan = hsc_extremes(fs1, 0.5, samples=1, optimizer_steps=0, directions_per_point=1)
    assert scan.samples == 1 and abs(scan.min_H - 2.0) < 1e-8


@pytest.mark.parametrize("m,directions", [(1, 1), (2, 20), (3, 5), (4, 20), (6, 3)])
def test_the_block_draw_equals_the_per_point_draws(m, directions):
    """models._draw equals the draws of the per-point scan, point by
    point and direction by direction, bit for bit."""
    for key in ([0], [5], [0, 1234], [7, 2**32 - 1]):
        zs, dirs = models._draw(m, 0.7, 12, directions, key)
        for idx in range(12):
            z, want = point_draw(m, 0.7, directions, key, idx)
            assert np.array_equal(zs[idx], z) and np.array_equal(dirs[idx], want), (key, idx)


@lru_cache(maxsize=None)
def _scored_field(which):
    """A registry metric field, or h_lambda of a registry fibration as
    "model@lambda"."""
    from hermitia.fibration import h_lambda

    model_id, _, lam = which.partition("@")
    entry = resolve_model(model_id)
    return entry.field if entry.kind == "metric" else h_lambda(entry.fibration, float(lam))


SCORED_FIELDS = ["fs:1", "fs:2", "gr:2:4", "gr:3:6"] + [
    "%s@%g" % (model_id, lam)
    for model_id in ("hirz:1", "hirz:2", "hirz:3", "prod:fs1:fs1", "prod:fs2:fs1")
    for lam in (0.0, 0.5, 3.0, 12.0)
]


@pytest.mark.parametrize("which", SCORED_FIELDS)
def test_block_scoring_equals_the_per_point_scoring(which):
    """The H of a scan's points, scored in one hsc_of_tensor call on the
    stacked tensors of the per-point reads (_point_rows) and of the block
    read (_block_rows), equal the per-point hsc_of_tensor call on each
    point's own curvature_tensor record bit for bit."""
    field = _scored_field(which)
    zs, dirs = models._draw(field.m, 0.7, 6, 20, [3])
    want = []
    for z, d in zip(zs, dirs):
        curv = curvature_tensor(field, z)
        want.append(hsc_of_tensor(curv.tensor, curv.form.gram, d))
    for rows in (models._point_rows(field, zs), models._block_rows(field, zs, lambda g: np.ones(len(g), bool))):
        assert rows.n == len(zs) and rows.error is None
        assert np.array_equal(hsc_of_tensor(*rows.value, dirs), np.array(want))


def test_a_rejected_direction_is_named_within_its_block():
    """Block scoring names a direction along which G is not positive by
    its index among its own block's directions."""
    g = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    tensor = np.zeros((2, 2, 2, 2, 2), dtype=complex)
    dirs = np.array([[[1.0, 0.0]] * 3, [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]], dtype=complex)
    with pytest.raises(NotPositive, match="direction 1 of 3$"):
        hsc_of_tensor(tensor, g, dirs)


def test_scan_result_serializes(fs1):
    scan = hsc_extremes(fs1, region=0.5, samples=40, optimizer_steps=5, seed=1)
    d = scan.as_dict()
    assert d["samples"] == 40
    assert isinstance(d["argmin_point"][0], list)


# ---------------------------------------------------------------------------
# Ricci form and Einstein constants


def test_ricci_of_flat_metric_vanishes():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    flat = constant_field(a @ a.conj().T + 3 * np.eye(3), 2, radius=2.0)
    assert np.linalg.norm(ricci(flat, [0.1, -0.2j])) < 1e-12


def test_ricci_needs_positive_metric():
    deg = random_degenerate_field(np.random.default_rng(1), 1, 3, rank=2)
    with pytest.raises(NotPositiveAtPoint):
        ricci(deg, [0.1])


def test_fs_is_einstein(fs1, fs2):
    assert einstein_residual(fs1, 2.0) < 1e-6
    assert einstein_residual(fs2, 3.0) < 1e-6


def test_grassmannian_is_einstein(gr24):
    assert einstein_residual(gr24.field, 4.0) < 1e-6


def test_wrong_einstein_constant_is_detected(fs1):
    assert einstein_residual(fs1, 2.5) > 0.1


def test_einstein_residual_is_deterministic(fs2):
    assert einstein_residual(fs2, 3.0, seed=9) == einstein_residual(fs2, 3.0, seed=9)


# ---------------------------------------------------------------------------
# model registry


def test_registry_projective():
    entry = resolve_model("fs:2")
    assert entry.kind == "metric"
    assert entry.einstein_constant == 3.0
    assert entry.field.m == 2


def test_registry_grassmannian():
    entry = resolve_model("gr:2:4")
    assert entry.kind == "metric"
    assert entry.einstein_constant == 4.0
    assert isinstance(entry.grassmann, GrassmannChartModel)
    assert entry.hsc_lower == 1.0


@pytest.mark.parametrize("bad", ["fs", "fs:x", "gr:4:4", "gr:2", "nope:1", "fs:0"])
def test_registry_rejects_malformed_ids(bad):
    with pytest.raises(ConfigError):
        resolve_model(bad)


# ---------------------------------------------------------------------------
# direction draws


def _unit_direction(rng, m):
    v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("m", range(1, 7))
def test_unit_directions_equal_the_per_direction_draws(m):
    """One draw of all directions equals one draw per direction, and leaves
    the generator where the per-direction draws leave it."""
    for seed in range(200):
        loop_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.stack([_unit_direction(loop_rng, m) for _ in range(20)])
        assert np.array_equal(_unit_directions(rng, m, 20), want)
        assert rng.standard_normal() == loop_rng.standard_normal()
