"""One Gram kernel, and one pair of derivative kernels, per field constructor.

Every field the package builds reads its Gram matrices through one
stacked kernel (``ChartField.stack_fn``), and its analytic derivatives
through two more (``d_fn`` and ``dd_fn``); a read at one point is a
kernel on a one-row stack.  These tests hold the stacked reads of the
constant-rank gate, of the finite-difference stencils and of the
derivative kernels to the per-point reads, bit for bit, count the kernel
calls of a solve and of the construction self-check, and check the typed
errors a stack raises.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia import NonFinite, NotPositiveAtPoint, OutOfDomain, charts, fibration, models
from hermitia.charts import ChartField, HolomorphicMap, curvature_tensor
from hermitia.fields import (
    MatrixPolynomial,
    MonomialMap,
    constant_field,
    from_factor,
    from_potential_map,
    fs_monomials,
    pullback_field,
    scaled_field,
    sum_field,
    twisted_fiber_monomials,
)
from hermitia.instances import random_degenerate_field, random_pd_field, sequence_instance
from hermitia.models import pluecker_monomials
from hermitia.sequences import ExactSeqChart

from oracles import outer_dd, wirtinger_fd

# the seeds of test_sequences.JET_SEEDS: m = 1 and 2, moving and constant
# inclusions
JET_SEEDS = (0, 1, 5, 17)
Z2 = np.array([0.2 + 0.1j, 0.4 - 0.2j])


def _fibration(model_id):
    return models.resolve_model(model_id).fibration


def _square_map():
    """A holomorphic self-map of C^2 with its Jacobian."""

    def func(z):
        return np.array([z[0] + 0.5 * z[1] ** 2, 0.3 * z[0] * z[1] + z[1]])

    def jac(z):
        return np.array([[1.0, z[1]], [0.3 * z[1], 0.3 * z[0] + 1.0]])

    return HolomorphicMap(func, 2, 2, jacobian=jac)


def _rng(*key):
    return np.random.default_rng(np.random.SeedSequence([71, *key]))


FIELDS = {
    "fs:1": lambda: (models.fubini_study_chart(1), np.array([0.3 - 0.2j])),
    "fs:2": lambda: (models.fubini_study_chart(2), Z2),
    "fs:3": lambda: (models.fubini_study_chart(3), np.array([0.1j, -0.2, 0.3 + 0.1j])),
    "pluecker:2:4": lambda: (models.pluecker_pullback(2, 4), 0.1 * np.array([1, 2j, -1, 1 + 1j])),
    "gr:2:4": lambda: (models.grassmannian_chart(2, 4).field, 0.1 * np.array([1, 2j, -1, 1 + 1j])),
    "hirz:1.b1": lambda: (_fibration("hirz:1").b1_field, Z2),
    "hirz:1.b2": lambda: (_fibration("hirz:1").b2_field, Z2),
    "prod.b1": lambda: (_fibration("prod:fs1:fs1").b1_field, Z2),
    "prod.b2": lambda: (_fibration("prod:fs1:fs1").b2_field, Z2),
    "h_lambda": lambda: (fibration.h_lambda(_fibration("hirz:1"), 2.0), Z2),
    "scaled": lambda: (scaled_field(models.fubini_study_chart(2), 3.0), Z2),
    "sum": lambda: (
        sum_field(random_pd_field(_rng(1), 2, 3), random_degenerate_field(_rng(2), 2, 3, 2), c2=0.5),
        0.3 * Z2,
    ),
    "pullback": lambda: (
        pullback_field(models.fubini_study_chart(2), _square_map(), center=np.zeros(2), radius=0.9),
        0.3 * Z2,
    ),
    "constant": lambda: (constant_field([[2.0, 0.5j], [-0.5j, 1.0]], 2), 0.3 * Z2),
    "pd": lambda: (random_pd_field(_rng(3), 2, 4), 0.3 * Z2),
    **{
        "degenerate:%d:%d" % (r, rank): (
            lambda r=r, rank=rank: (random_degenerate_field(_rng(4, r, rank), 2, r, rank), 0.3 * Z2)
        )
        for r in (2, 3, 4)
        for rank in range(1, r)
    },
    **{
        "seq%d.%s" % (seed, part): (
            lambda seed=seed, part=part: (
                getattr(sequence_instance(seed)[0], part),
                sequence_instance(seed)[1],
            )
        )
        for seed in JET_SEEDS
        for part in ("sub_field", "quot_field")
    },
}


@pytest.fixture(params=sorted(FIELDS), ids=sorted(FIELDS))
def field_at(request):
    return FIELDS[request.param]()


def _reads(field, zs):
    return np.stack([field.gram(w) for w in zs])


def test_stacked_gate_and_stencil_reads_equal_point_reads(field_at):
    field, z = field_at
    assert field.stack_fn is not None
    for zs in (
        charts._gate_stencil(z, field.fd_outer_step),
        charts._stencil_ring(z, field.fd_step),
    ):
        assert np.array_equal(field.gram_stack(zs), _reads(field, zs))


# the table, and the quotient of a degenerate ambient, whose kernel takes
# forms.quotient_form of each row and whose derivatives are stencils
C_ORDER_FIELDS = {
    **FIELDS,
    "degenerate.quot_field": lambda: (
        ExactSeqChart(random_degenerate_field(_rng(5), 2, 3, 2), np.eye(3, 1)).quot_field,
        0.3 * Z2,
    ),
}


@pytest.mark.parametrize("name", sorted(C_ORDER_FIELDS))
def test_gram_reads_are_in_c_order(name):
    """Every constructor's stacked and one-point Gram reads are C-contiguous,
    whatever order its kernel returns: a product with a strided row can
    round differently."""
    field, z = C_ORDER_FIELDS[name]()
    assert field.gram_stack(charts._gate_stencil(z, field.fd_outer_step)).flags.c_contiguous
    assert field.gram(z).flags.c_contiguous


def test_one_row_equals_a_row_of_seventeen(field_at):
    field, z = field_at
    rng = np.random.default_rng(3)
    zs = z + 0.05 * (rng.uniform(-1, 1, (17, field.m)) + 1j * rng.uniform(-1, 1, (17, field.m)))
    stacked = field.gram_stack(zs)
    for i in range(len(zs)):
        assert np.array_equal(field.gram_stack(zs[i : i + 1])[0], stacked[i])


@pytest.mark.parametrize(
    "mono",
    [
        fs_monomials(2),
        twisted_fiber_monomials(2),
        pluecker_monomials(2, 4),
        MonomialMap(2, [[(1.0, (2, 1))], [(3.0, (0, 3)), (1.0 - 2j, (1, 0))], [(0.5j, (4, 2))]]),
    ],
    ids=["fs:2", "hirz:2", "pluecker:2:4", "mixed"],
)
def test_monomial_jets_of_a_stack_are_the_point_jets(mono):
    rng = np.random.default_rng(5)
    zs = 0.6 * (rng.uniform(-1, 1, (17, mono.m)) + 1j * rng.uniform(-1, 1, (17, mono.m)))
    stacked = mono.jet(zs, 2)
    for i, z in enumerate(zs):
        for order, part in enumerate(mono.jet(z, 2)):
            assert np.array_equal(stacked[order][i], part)
    assert [p.shape for p in stacked] == [(17, mono.n), (17, mono.n, mono.m), (17, mono.n, mono.m, mono.m)]


@pytest.mark.parametrize("name", ["fs:2", "h_lambda", "pd", "seq1.quot_field"])
def test_stencil_derivatives_equal_the_per_point_stencils(name):
    """The stacked finite differences against the per-point Wirtinger
    stencils they replace: d, dbar and the nested mixed second derivative
    of the finite-difference copy, and the outer difference of d_fn.  The
    first derivatives of a stack of points, as the self-check reads them,
    equal those at each point, and so do the nested mixed second
    derivatives of a stack."""
    field, z = FIELDS[name]()
    fd = field.finite_difference_copy()
    m, h, outer = field.m, field.fd_step, field.fd_outer_step
    zs = z + 0.01 * np.arange(3)[:, None]
    for conj in (False, True):
        slow = np.stack([wirtinger_fd(fd.gram, z, a, h, conj) for a in range(m)])
        assert np.array_equal(fd._fd(z, conj), slow)
        stacked = fd._fd(zs, conj)
        assert stacked.shape == (3,) + slow.shape
        for w, row in zip(zs, stacked):
            assert np.array_equal(row, fd._fd(w, conj))
    slow = np.empty_like(fd.dd(z))
    slow_d = np.empty_like(slow)
    for a in range(m):
        for b in range(m):
            slow[a, b] = wirtinger_fd(lambda w: wirtinger_fd(fd.gram, w, b, h, True), z, a, outer)
            slow_d[a, b] = wirtinger_fd(lambda w: field.d(w)[b].conj().T, z, a, outer)
    assert np.array_equal(fd.dd(z), slow)
    assert np.array_equal(field._dd_ring(z[None])[0], slow_d)
    for w, row in zip(zs, fd.dd_stack(zs)):
        assert np.array_equal(row, fd.dd(w))
    for a in range(m):
        assert np.array_equal(fd.d(z)[a], wirtinger_fd(field.gram, z, a, h))


# ---------------------------------------------------------------------------
# read counts


@pytest.mark.parametrize("name", ["fs:2", "h_lambda", "pd"])
def test_one_curvature_makes_one_kernel_call_and_no_point_read(name):
    field, z = FIELDS[name]()
    rows = []
    kernel = field.stack_fn
    field.stack_fn = lambda zs: rows.append(len(zs)) or kernel(zs)
    curvature_tensor(field, z)
    # a point read would be a one-row call of the kernel
    assert rows == [4 * field.m + 1]


def _count_stacks(monkeypatch):
    rows = []
    stack = ChartField.gram_stack

    def counting(self, zs):
        rows.append(len(zs))
        return stack(self, zs)

    monkeypatch.setattr(ChartField, "gram_stack", counting)
    return rows


@pytest.mark.parametrize("name", ["fs:2", "pd"])
def test_finite_differences_read_one_stack_per_point(name, monkeypatch):
    field, z = FIELDS[name]()
    fd = field.finite_difference_copy()
    m = field.m
    rows = _count_stacks(monkeypatch)
    fd.d(z)
    fd.dbar(z)
    assert rows == [4 * m, 4 * m]
    rows.clear()
    fd.dd(z)
    assert rows == [16 * m * m]
    rows.clear()
    curvature_tensor(fd, z)
    assert rows == [4 * m + 1, 4 * m, 4 * m, 16 * m * m]


def test_self_check_reads_its_first_order_stencils_in_one_stack(monkeypatch):
    rows = _count_stacks(monkeypatch)
    random_pd_field(_rng(9), 2, 3)
    assert rows == [10 * 4 * 2]


def test_self_check_reads_each_derivative_order_in_one_call():
    """d_fn at the 10 first-order points, then at the 3 * 4m outer
    stencil points of the second order, and dd_fn at the 3 second-order
    points: one call each."""
    base = random_pd_field(_rng(9), 2, 3)
    d_rows, dd_rows = [], []

    def d_fn(zs):
        d_rows.append(len(zs))
        return base.d_fn(zs)

    def dd_fn(zs):
        dd_rows.append(len(zs))
        return base.dd_fn(zs)

    ChartField(2, 3, base.stack_fn, radius=base.radius, d_fn=d_fn, dd_fn=dd_fn)
    assert d_rows == [10, 3 * 4 * 2]
    assert dd_rows == [3]


# ---------------------------------------------------------------------------
# the derivative kernels of a stack


@pytest.fixture(scope="module")
def built():
    return {name: make() for name, make in FIELDS.items()}


def _near(field, z, seed, rows):
    rng = np.random.default_rng(seed)
    return z + 0.05 * (rng.uniform(-1, 1, (rows, field.m)) + 1j * rng.uniform(-1, 1, (rows, field.m)))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(FIELDS)), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6))
def test_derivative_kernel_rows_equal_the_one_row_reads(built, name, seed, rows):
    """d_fn(zs)[i] and dd_fn(zs)[i] equal d(zs[i]) and dd(zs[i]) bit for
    bit, for the kernels of every constructor in the table."""
    field, z = built[name]
    assert field.analytic
    zs = _near(field, z, seed, rows)
    d, dd = field.d_stack(zs), field.dd_stack(zs)
    assert d.shape == (rows, field.m, field.shape, field.shape)
    assert dd.shape == (rows, field.m, field.m, field.shape, field.shape)
    for i, w in enumerate(zs):
        assert np.array_equal(d[i], field.d(w))
        assert np.array_equal(dd[i], field.dd(w))


@pytest.mark.parametrize("fd", [False, True], ids=["analytic", "fd"])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_stacked_assembly_equals_the_one_point_tensors(built, name, fd):
    """assemble_rows over the solves of a 6-row stack equals each point's
    curvature_tensor bit for bit, for every constructor in the table and
    for its finite-difference copy."""
    field, z = built[name]
    if fd:
        field = field.finite_difference_copy()
    zs = _near(field, z, 11, 6)
    tensors = charts.assemble_rows(field, zs, charts.solve_points(field, zs))
    assert tensors.shape == (6, field.m, field.m, field.shape, field.shape)
    assert tensors.flags.c_contiguous
    for i, w in enumerate(zs):
        assert np.array_equal(tensors[i], curvature_tensor(field, w).tensor), i


@pytest.mark.parametrize("name", ["fs:2", "gr:2:4", "hirz:1.b2", "pd", "pullback", "seq1.sub_field", "seq5.quot_field"])
def test_stacked_outer_difference_equals_the_per_point_ring(built, name):
    """The self-check's second-order side at a stack of points, from one
    d_fn call at all their outer stencil points, equals ring_fd over the
    one-point reads of dbar G at each point, bit for bit."""
    field, z = built[name]
    assert field.analytic
    zs = _near(field, z, 5, 3)
    stacked = field._dd_ring(zs)
    for i, w in enumerate(zs):
        assert np.array_equal(stacked[i], outer_dd(field, w))


@pytest.mark.parametrize("read", ["d", "dd"])
@pytest.mark.parametrize("where", ["outside", "margin"])
def test_a_stack_with_a_point_off_the_chart_raises_there_and_reads_none_of_it(read, where):
    """A finite-difference stack read with one point outside the chart,
    or too near its edge for the stencil, raises the OutOfDomain that the
    per-point loop raises at that point, and reads no Gram matrix at all:
    every point's domain is checked, in one comparison, before the one
    stencil read."""
    base = random_pd_field(_rng(5), 2, 3)
    reads = []

    def counted(zs):
        reads.append(len(zs))
        return base.stack_fn(zs)

    field = ChartField(2, 3, counted, radius=base.radius, self_check=False)
    zs = 0.3 * Z2 + 0.05 * np.arange(4)[:, None]
    zs[2, 1] = 0.95 if where == "outside" else 0.9 - 0.5 * field.fd_step
    with pytest.raises(OutOfDomain) as per_point:
        for w in zs:
            getattr(field, read)(w)
    assert reads == ([4 * 2] if read == "d" else [16 * 2 * 2]) * 2
    reads.clear()
    with pytest.raises(OutOfDomain) as stacked:
        getattr(field, read + "_stack")(zs)
    assert str(stacked.value) == str(per_point.value)
    assert np.array2string(zs[2], precision=3) in str(stacked.value)
    assert reads == []


# ---------------------------------------------------------------------------
# typed errors on stacks


def _nan_at(p, m):
    """The identity map of C^m, except that it sends p to NaN."""

    def func(w):
        return np.full(m, np.nan, dtype=complex) if np.array_equal(w, p) else w

    return HolomorphicMap(func, m, m, jacobian=lambda w: np.eye(m, dtype=complex))


@pytest.mark.parametrize("kind", ["potential", "factor"])
def test_nan_in_one_stacked_row_names_that_point(kind):
    """A NaN entering a potential-map or a factor kernel as one row of the
    gate's stack: the other rows stay finite and the gate names the row's
    chart point."""
    inner = models.fubini_study_chart(2) if kind == "potential" else random_pd_field(_rng(6), 2, 3)
    z = 0.3 * Z2
    gate = charts._gate_stencil(z, inner.fd_outer_step)
    for i in (0, 3, len(gate) - 1):
        field = pullback_field(inner, _nan_at(gate[i], 2), center=np.zeros(2), radius=0.9)
        with np.errstate(invalid="ignore"):
            grams = field.gram_stack(gate)
            finite = np.isfinite(grams).all(axis=(1, 2))
            assert np.flatnonzero(~finite).tolist() == [i]
            with pytest.raises(NonFinite) as info:
                curvature_tensor(field, z)
        where = np.array2string(gate[i], precision=3)
        assert str(info.value) == "Gram matrix of the rank gate is not finite at %s" % where


def test_potential_zero_at_one_gate_point_names_that_point():
    """log |w|^2 with w = (z - 3/4)(1, z): the Gram matrix is 0/0 where w
    vanishes, which the gate meets at its neighbour 1/2 + 1/4."""
    mono = MonomialMap(1, [[(1.0, (1,)), (-0.75, (0,))], [(1.0, (2,)), (-0.75, (1,))]])
    field = from_potential_map(mono, radius=2.0, fd_outer_step=0.25, self_check=False)
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(NonFinite) as info:
            curvature_tensor(field, [0.5])
    assert str(info.value) == "Gram matrix of the rank gate is not finite at [0.75+0.j]"


@pytest.mark.parametrize("what", ["d", "dd"])
def test_potential_derivatives_where_the_map_vanishes_name_the_point(what):
    """The same map: at z = 3/4 the potential's frame w^T is zero, so its
    derivatives are 0/0 there and raise instead of returning NaN, read
    alone or at a later row of a stack whose other rows are regular."""
    mono = MonomialMap(1, [[(1.0, (1,)), (-0.75, (0,))], [(1.0, (2,)), (-0.75, (1,))]])
    field = from_potential_map(mono, radius=2.0, self_check=False)
    with pytest.raises(NonFinite, match=r"at \[0\.75\+0\.j\]"):
        getattr(field, what)(np.array([0.75]))
    stack = np.array([[0.2], [0.5j], [0.75], [-0.4]])
    with pytest.raises(NonFinite, match=r"at \[0\.75\+0\.j\]"):
        getattr(field, what + "_stack")(stack)
    assert np.isfinite(getattr(field, what + "_stack")(stack[[0, 1, 3]])).all()


def _singular_quotient():
    """The quotient of the sequence of test_sequences' non-positive fixture:
    its ambient Gram matrix is singular at z = 0.5 only."""
    l0 = np.diag([1.0, 1.0, -0.5]).astype(complex)
    l0[0, 1] = 0.2
    l1 = np.zeros((1, 3, 3), dtype=complex)
    l1[0, 2, 2] = 1.0
    l1[0, 0, 1] = 0.3
    amb = from_factor(MatrixPolynomial(l0, c1=l1), 1, radius=0.9)
    return ExactSeqChart(amb, np.eye(3, 1)).quot_field


def test_batched_quotient_read_across_the_singular_point_names_it():
    quot = _singular_quotient()
    assert quot.analytic
    for read in (quot.gram_stack, quot.d_stack, quot.dd_stack):
        with pytest.raises(NotPositiveAtPoint, match=r"at \[0\.5\+0\.j\]"):
            read(np.array([[0.2], [0.6], [0.5], [0.4]], dtype=complex))
    # the gate's last stencil point, z - i s, is 0.5 exactly
    with pytest.raises(NotPositiveAtPoint, match=r"at \[0\.5\+0\.j\]"):
        curvature_tensor(quot, [0.5 + 1e-3j])
    assert np.isfinite(quot.gram_stack(np.array([[0.2], [0.6], [0.4]], dtype=complex))).all()
