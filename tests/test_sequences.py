import functools
import gc
import itertools
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia import (
    HermitiaError,
    NonFinite,
    NotHolomorphic,
    NotPositiveAtPoint,
    OutOfDomain,
    RankJump,
    acceptance,
    charts,
    sequences,
)
from hermitia.charts import (
    PROBE_STEP,
    ChartField,
    FieldAt,
    chern_connection,
    curvature_tensor,
    ring_fd,
)
from hermitia.fields import MatrixPolynomial, constant_field, from_factor, sum_field
from hermitia.forms import LinearMap, hermitize, quotient_form, sum_quotient_form
from hermitia.instances import (
    random_pd_field,
    sequence_instance,
    sum_instance,
)
from hermitia.sequences import (
    ExactSeqChart,
    codazzi_quot,
    codazzi_sub,
    demailly_residuals,
    second_fundamental_form,
    splitting_curvature_blocks,
    sum_curvature,
)

from oracles import SeqPoint, smooth_kernel_perturbation, sum_curvature_loop, wirtinger_fd


def line_j(zs):
    """The line (1, z) as an inclusion kernel: (B, 1) -> (B, 2, 1)."""
    return np.stack([np.ones(len(zs)), zs[:, 0]], axis=1)[:, :, None]


def line_dj(zs):
    return np.repeat([[[[0.0], [1.0]]]], len(zs), axis=0)


def conj_line_j(zs):
    """The antiholomorphic line (1, conj z)."""
    return np.stack([np.ones(len(zs)), np.conj(zs[:, 0])], axis=1)[:, :, None]


def vanishing_line(p, r):
    """The kernels of j = 10 (w - p) e1 in C^r, which vanishes at p, and
    of its derivative."""
    e1 = np.eye(r, 1, dtype=complex)
    return (
        lambda ws: 10.0 * (ws[:, 0] - p[0])[:, None, None] * e1,
        lambda ws: np.repeat(10.0 * e1[None, None], len(ws), axis=0),
    )


def taut_sequence(radius=2.0):
    """The line (1, z) inside the trivially-metrized C^2."""
    amb = constant_field(np.eye(2), 1, radius=radius)
    return ExactSeqChart(amb, line_j, dj=line_dj, name="taut")


def block_split_sequence(seed=7, fd=False):
    """Block-diagonal ambient with the block inclusion: sigma must vanish.
    With ``fd`` the ambient is the finite-difference copy of the analytic
    block field."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    f1 = random_pd_field(rng, 1, 2)
    f2 = random_pd_field(rng, 1, 1)

    def stack_fn(zs):
        out = np.zeros((len(zs), 3, 3), dtype=complex)
        out[:, :2, :2] = f1.gram_stack(zs)
        out[:, 2:, 2:] = f2.gram_stack(zs)
        return out

    def d_fn(zs):
        out = np.zeros((len(zs), 1, 3, 3), dtype=complex)
        out[..., :2, :2] = f1.d_stack(zs)
        out[..., 2:, 2:] = f2.d_stack(zs)
        return out

    def dd_fn(zs):
        out = np.zeros((len(zs), 1, 1, 3, 3), dtype=complex)
        out[..., :2, :2] = f1.dd_stack(zs)
        out[..., 2:, 2:] = f2.dd_stack(zs)
        return out

    amb = ChartField(1, 3, stack_fn, radius=0.9, d_fn=d_fn, dd_fn=dd_fn, self_check=False)
    if fd:
        amb = amb.finite_difference_copy()
    return ExactSeqChart(amb, np.eye(3, 2)), f1, f2


def kernel_compat_sequence(seed=7):
    """Degenerate ambient whose subbundle meets the form kernel.

    The ambient factor is L = [L2 | 0] (rank 2 in a 3-dimensional fiber)
    and the inclusion spans e1 and the kernel direction e3, so the sub
    form has a kernel and the second fundamental form must annihilate it.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    l0 = np.zeros((2, 3), dtype=complex)
    l0[:, :2] = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    l0[:, :2] += 2.0 * np.eye(2)
    l1 = np.zeros((1, 2, 3), dtype=complex)
    l1[0, :, :2] = 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    amb = from_factor(MatrixPolynomial(l0, c1=l1), 1, radius=0.9)
    j = np.zeros((3, 2), dtype=complex)
    j[0, 0] = 1.0
    j[2, 1] = 1.0
    return ExactSeqChart(amb, j)


def rand_vec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def pair(tensor, a, b, s, t):
    return complex(np.einsum("st,s,t->", tensor[a, b], s, np.conj(t)))


# ---------------------------------------------------------------------------
# frames and induced fields


def test_quotient_frame_values():
    seq = taut_sequence()
    z = np.array([0.3 + 0.1j])
    assert np.allclose(seq.at(np.zeros(1)).q[0], [[0.0, 1.0]])
    assert np.allclose(seq.at(z).q[0], [[-0.3 - 0.1j, 1.0]])
    assert abs(seq.at(z).q[0] @ seq.j_at(z)) < 1e-14


def test_quotient_frame_kills_inclusion_generically():
    seq, z = sequence_instance(4)
    assert np.linalg.norm(seq.at(z).q[0] @ seq.j_at(z)) < 1e-12


def test_quotient_frame_derivative_matches_stencil():
    seq, z = sequence_instance(2)
    h = 1e-5
    for a in range(seq.m):
        e = np.zeros(seq.m, dtype=complex)
        e[a] = 1.0
        fd = (
            seq.at(z + h * e).q[0]
            - seq.at(z - h * e).q[0]
            - 1j * seq.at(z + 1j * h * e).q[0]
            + 1j * seq.at(z - 1j * h * e).q[0]
        ) / (4 * h)
        assert np.linalg.norm(seq.at(z).dq[0][a] - fd) < 1e-8


def test_induced_grams_tautological():
    seq = taut_sequence()
    z = np.array([0.3 + 0.1j])
    assert abs(seq.sub_field.gram(z).item() - 1.1) < 1e-12
    assert abs(seq.quot_field.gram(z).item() - 1.0 / 1.1) < 1e-10


def test_pointwise_adjoints_are_one_sided_inverses():
    seq, z = sequence_instance(6)
    at = seq.at(z)
    assert np.linalg.norm(at.jdag[0] @ at.j[0] - np.eye(seq.k)) < 1e-10
    assert np.linalg.norm(at.q[0] @ at.qdag[0] - np.eye(seq.r - seq.k)) < 1e-10


def _seq_cases():
    cases = [sequence_instance(seed) for seed in range(6)]
    cases.append((kernel_compat_sequence(), np.array([0.15 + 0.1j])))
    return cases


# every quantity of the base record, in dependency order
SEQ_NAMES = ["j", "dj", "q", "dq"] + [
    part + "." + what for part in ("ambient", "sub", "quot") for what in ("form", "a", "tensor")
] + ["jdag", "qdag", "sigma", "sigma_dagger"]


def _read(record, name, row=None):
    """The quantity ``name`` (``j``, or a field's ``form``, ``a`` or
    ``tensor`` as ``sub.a``) of the per-point oracle, or of row ``row`` of
    a stacked record, whose field tensor is z's alone."""
    part, _, what = name.rpartition(".")
    if row is None:
        value = getattr(getattr(record, part), what) if part else getattr(record, name)
        return value.gram if what == "form" else value
    if not part:
        return getattr(record, name)[row]
    rows = getattr(record, part)
    return {"form": lambda: rows.forms.gram[row], "a": lambda: rows.solves.a[row], "tensor": lambda: rows.tensor}[what]()


@pytest.mark.parametrize("case", range(7))
def test_lazy_seq_data_equals_eager_oracle(case):
    """The base record, each quantity read in turn in dependency order,
    equals the per-point oracle bit for bit."""
    seq, z = _seq_cases()[case]
    want = SeqPoint(seq, z)
    at = seq.at(z)
    for name in SEQ_NAMES:
        assert np.array_equal(_read(at, name, 0), _read(want, name)), name


def _base_cases():
    """_seq_cases, then an m = 1 constant inclusion (sequence_instance(17))
    and the finite-difference ambient, whose quotient reads
    quotient_form."""
    return _seq_cases() + [
        sequence_instance(17),
        (block_split_sequence(fd=True)[0], np.array([0.1 - 0.05j])),
    ]


def test_base_cases_cover_both_dimensions_and_inclusion_kinds():
    kinds = {(seq.m, bool(np.any(seq.dj_at(z)))) for seq, z in _base_cases()}
    assert kinds == {(1, False), (1, True), (2, False), (2, True)}


@pytest.mark.parametrize("case", range(len(_seq_cases()) + 2))
@pytest.mark.parametrize("forms_first", [False, True], ids=["solved", "forms_first"])
def test_base_records_equal_the_fields_solved_alone(case, forms_first):
    """The base point's ambient, sub and quotient records, solved from the
    one shared read of the base gate points, equal each field's own
    curvature_tensor at z bit for bit: form (gram, rank, pinv), dG, A,
    residual and tensor; so they do when the forms are read before the
    solves, as the adjoints read them."""
    seq, z = _base_cases()[case]
    at = seq.at(z)
    if forms_first:
        at.jdag, at.qdag
    for part, field in (("ambient", seq.ambient), ("sub", seq.sub_field), ("quot", seq.quot_field)):
        got, want = getattr(at, part), curvature_tensor(field, z)
        assert np.array_equal(got.forms.gram[0], want.form.gram), part
        assert got.forms.rank[0] == want.form.rank, part
        assert np.array_equal(got.forms.pinv[0], want.form.pinv), part
        for name in ("dg", "a", "residual"):
            assert np.array_equal(getattr(got.solves, name)[0], getattr(want, name)), (part, name)
        assert np.array_equal(got.tensor, want.tensor), part


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_base_forms_read_first_are_factorized_once(seed, monkeypatch):
    """The adjoints read the record's forms before their solves; each
    solve then reuses its form's FormStack, so the three fields run one
    eigh each, over the 4m + 1 points of the record: of shapes
    (4m + 1, k, k), (4m + 1, r, r) and (4m + 1, r - k, r - k)."""
    seq, z = sequence_instance(seed)
    seq.quot_field  # built ahead: its choice of route reads G at the chart centre
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    at = seq.at(z)
    at.jdag, at.qdag
    at.ambient.solves, at.sub.solves, at.quot.solves
    b = 4 * seq.m + 1
    shapes = [(b, seq.k, seq.k), (b, seq.r, seq.r), (b, seq.r - seq.k, seq.r - seq.k)]
    assert Counter(calls) == Counter(shapes)


def test_a_sub_jet_is_read_once_per_stack(monkeypatch):
    """A one-row d read of the sub field then a dd read of the same row
    share one first-order part: one call of the ambient's Gram kernel and
    one of its d_fn."""
    seq, z = sequence_instance(1)
    reads, d_reads = _count_ambient_reads(seq, monkeypatch)
    zs = z[None]
    seq.sub_field.d_stack(zs)
    seq.sub_field.dd_stack(zs.copy())
    assert (reads, d_reads) == ([1], [1])


def _count_solves(monkeypatch):
    """Record (field, points) of every connection solve of a sequence
    record and of its probe ring, counted at their one solve entry point,
    ``charts.solve_rows``, which every FieldRows calls; a multi-point
    solve of its own (``charts.solve_points``) fails the test."""
    calls = []
    solve_rows = charts.solve_rows

    def counting(field, zs, grams, forms=None):
        calls.append((field, len(zs)))
        return solve_rows(field, zs, grams, forms)

    def unexpected(*args):
        raise AssertionError("a sequence record solved through solve_points")

    monkeypatch.setattr(charts, "solve_rows", counting)
    monkeypatch.setattr(charts, "solve_points", unexpected)
    return calls


def _count_rows(obj, name, monkeypatch):
    """The number of rows of every call of the kernel ``obj.name``, which
    takes a stack of points first."""
    rows, kernel = [], getattr(obj, name)

    def counting(zs, *args):
        rows.append(len(zs))
        return kernel(zs, *args)

    monkeypatch.setattr(obj, name, counting)
    return rows


def _count_ambient_reads(seq, monkeypatch):
    """The number of rows of every call of the ambient's Gram kernel and of
    its d_fn."""
    return _count_rows(seq.ambient, "stack_fn", monkeypatch), _count_rows(seq.ambient, "d_fn", monkeypatch)


@pytest.mark.parametrize("name", ["jdag", "qdag"])
def test_adjoint_probe_solves_no_connection(monkeypatch, name):
    """j dagger or q dagger and their probes solve no connection: their
    forms are the centre rows of the record's one read of the ambient at
    the 4m + 1 gate points of each of its 4m + 1 points: no dG read.  Only
    sigma reads dG, for one solve of the ambient and one of the sub over
    all the record's points, from that same read (the sub's dG reads G at
    the 4m + 1 points once more); its probe and z's row share them."""
    seq, z = sequence_instance(3)
    seq.quot_field  # built ahead: its choice of route reads G at the chart centre
    b = 4 * seq.m + 1
    at = seq.at(z)
    calls = _count_solves(monkeypatch)
    reads, d_reads = _count_ambient_reads(seq, monkeypatch)
    getattr(at, name)  # z's row, from the record's forms
    assert (reads, d_reads, calls) == ([b * b], [], [])
    at.probe(name)
    at.probe(name, conjugate=True)
    assert (reads, d_reads, calls) == ([b * b], [], [])
    at.probe("sigma")  # dG of the ambient and of the sub
    solves = [(seq.ambient, b), (seq.sub_field, b)]
    assert (reads, d_reads, calls) == ([b * b, b], [b, b], solves)
    at.sigma  # z's row of the same solves
    assert (reads, d_reads, calls) == ([b * b, b], [b, b], solves)


def _stack_error(exact, fd):
    """Largest relative error over a stack of matrices, measured as the
    analytic-derivative self-check of a ChartField measures it."""
    err = np.linalg.norm(exact - fd, axis=(-2, -1))
    return float(np.max(err / (1.0 + np.linalg.norm(fd, axis=(-2, -1)))))


# sequence_instance seeds: m = 1 moving, m = 2 moving, m = 2 constant and
# m = 1 constant inclusion
JET_SEEDS = (0, 1, 5, 17)


@pytest.mark.parametrize("seed", JET_SEEDS)
def test_quotient_jet_matches_quotient_form_and_finite_differences(seed):
    seq, z = sequence_instance(seed)
    assert seq.quot_field.analytic
    oracle = quotient_form(LinearMap(seq.at(z).q[0]), seq.ambient.form_at(z)).gram
    gram = seq.quot_field.gram(z)
    assert np.linalg.norm(gram - oracle) <= 1e-12 * np.linalg.norm(oracle)
    fd = seq.quot_field.finite_difference_copy()
    assert _stack_error(seq.quot_field.d(z), fd.d(z)) <= 1e-6
    assert _stack_error(seq.quot_field.dd(z), fd.dd(z)) <= 1e-5
    r_jet = curvature_tensor(seq.quot_field, z).tensor
    r_fd = curvature_tensor(fd, z).tensor
    assert np.linalg.norm(r_jet - r_fd) <= 1e-5 * (1.0 + np.linalg.norm(r_fd))


def _raised(read):
    try:
        read()
    except HermitiaError as err:
        return type(err), str(err)
    return None


def test_base_records_raise_what_the_fields_raise_alone():
    """Where a base gate fails, each base record's solve raises what the
    field's own chern_connection at z raises: j = 10 (w - p) e1 vanishes
    at p = z + s, a gate neighbour of z, so the sub gate jumps in rank
    there and the quotient frame is not defined there, while the ambient
    passes; a point inside the chart by less than the gate's margin
    raises OutOfDomain in all three; and an ambient read as NaN at z
    raises NonFinite in all three, with the field's own text."""
    z = np.array([0.1 + 0.05j])
    p = z + 1e-3
    j, dj = vanishing_line(p, 3)
    seq = ExactSeqChart(constant_field(np.eye(3), 1, radius=0.9), j, dj=dj)
    edge = np.array([0.9 - 1e-3 + 0j])
    for w in (z, edge):
        at = seq.at(w)
        for part, field in (("ambient", seq.ambient), ("sub", seq.sub_field), ("quot", seq.quot_field)):
            want = _raised(lambda: chern_connection(field, w))
            assert _raised(lambda: getattr(at, part).solves) == want, (w, part)
            assert want is not None or part == "ambient"
    # an ambient read as NaN at z, under a constant inclusion
    amb = seq.ambient
    nan_at_z = ChartField(
        1, 3, lambda ws: np.where(ws == z, np.nan, 1.0)[:, :, None] * amb.stack_fn(ws), radius=0.9, self_check=False
    )
    bad = ExactSeqChart(nan_at_z, np.eye(3, 1))
    at = bad.at(z)
    for part, field in (("ambient", bad.ambient), ("sub", bad.sub_field), ("quot", bad.quot_field)):
        want = _raised(lambda: chern_connection(field, z))
        assert want[0] is NonFinite
        assert _raised(lambda: getattr(at, part).solves) == want, part


def _inclusion_kernels():
    """(name, m, j kernel, dj kernel or None) of every inclusion the
    package and these tests build: the seeded random inclusions (moving
    and constant), the tautological lines, the vanishing lines and the
    antiholomorphic line."""
    out = []
    for seed in JET_SEEDS:
        seq, _ = sequence_instance(seed)
        out.append(("instance %d" % seed, seq.m, seq._j_fn, seq._dj_fn))
    taut = acceptance._tautological_line()
    out.append(("acceptance line", 1, taut._j_fn, taut._dj_fn))
    out.append(("line", 1, line_j, line_dj))
    p = np.array([0.1 + 0.05j + 1j * PROBE_STEP])
    for r in (2, 3):
        out.append(("vanishing line %d" % r, 1) + vanishing_line(p, r))
    out.append(("conjugate line", 1, conj_line_j, None))
    return out


INCLUSION_KERNELS = _inclusion_kernels()


@settings(max_examples=40, deadline=None)
@given(
    index=st.integers(0, len(INCLUSION_KERNELS) - 1),
    rows=st.integers(1, 6),
    coords=st.lists(st.floats(-0.5, 0.5), min_size=24, max_size=24),
)
def test_stacked_inclusion_rows_equal_their_one_row_reads(index, rows, coords):
    """Every inclusion kernel keeps the row contract: row i of a stack
    read equals the one-row read of point i bit for bit, for j and dj.
    So do a chart's _j_stack and _dj_stack rows and its j_at and dj_at
    reads, with the kernel's dj and with the stencil's, and the stencil's
    dbar j rows and ring_fd of j_at."""
    name, m, j_fn, dj_fn = INCLUSION_KERNELS[index]
    x = np.asarray(coords[: 2 * rows * m]).reshape(2, rows, m)
    zs = x[0] + 1j * x[1]
    for fn in (j_fn, dj_fn):
        if fn is not None:
            stacked = np.asarray(fn(zs))
            for i in range(rows):
                assert np.array_equal(stacked[i], np.asarray(fn(zs[i : i + 1]))[0]), (name, i)
    if name == "conjugate line":
        return  # no chart takes it
    amb = constant_field(np.eye(np.shape(j_fn(zs[:1]))[1]), m, radius=2.0)
    for seq in (ExactSeqChart(amb, j_fn, dj=dj_fn), ExactSeqChart(amb, j_fn)):
        j, dj = seq._j_stack(zs), seq._dj_stack(zs)
        dbar = seq._j_fd(zs, conjugate=True)
        for i, w in enumerate(zs):
            assert np.array_equal(j[i], seq.j_at(w)), (name, i)
            assert np.array_equal(dj[i], seq.dj_at(w)), (name, i)
            assert np.array_equal(dbar[i], ring_fd(seq.j_at, w, amb.fd_step, conjugate=True)), (name, i)


# every sequence_instance seed drawn in this file
SEQUENCE_SEEDS = sorted(set(range(12)) | set(JET_SEEDS))


def test_random_inclusion_equals_its_tensordot_oracle():
    """The moving inclusions of the seeded instances read j0 + z . j1 and
    j1 exactly as a tensordot over the inclusion's coefficients does."""
    moving = 0
    for seed in SEQUENCE_SEEDS:
        seq, z = sequence_instance(seed)
        poly = getattr(seq._j_fn, "__self__", None)
        if poly is None:
            continue  # a constant inclusion
        moving += 1
        rng = np.random.default_rng(seed)
        spread = 0.4 * (rng.uniform(-1, 1, (5, seq.m)) + 1j * rng.uniform(-1, 1, (5, seq.m)))
        for w in np.concatenate([z[None], charts._stencil_ring(z, PROBE_STEP), spread]):
            assert np.array_equal(seq.j_at(w), poly.c0 + np.tensordot(w, poly.c1, axes=1))
            assert np.array_equal(seq.dj_at(w), poly.c1)
    assert moving >= 5


def test_jet_seeds_cover_both_dimensions_and_inclusion_kinds():
    kinds = set()
    for seed in JET_SEEDS:
        seq, z = sequence_instance(seed)
        kinds.add((seq.m, bool(np.any(seq.dj_at(z)))))
    assert kinds == {(1, False), (1, True), (2, False), (2, True)}


@pytest.mark.parametrize("seed", JET_SEEDS)
def test_probe_ring_equals_fresh_records(seed):
    """The fast path (one ring record, all directions at once) against
    the slow one (the per-point oracle at each stencil point of
    wirtinger_fd, one direction at a time)."""
    seq, z = sequence_instance(seed)
    at = seq.at(z)
    for name in ("jdag", "qdag", "sigma", "sigma_dagger"):
        for conj in (False, True):
            fast = at.probe(name, conj)
            assert fast.shape[0] == seq.m
            for a in range(seq.m):
                slow = wirtinger_fd(lambda w: getattr(SeqPoint(seq, w), name), at.z, a, PROBE_STEP, conj)
                assert np.array_equal(fast[a], slow), (name, a, conj)
    assert np.array_equal(at.zs[1:], charts._stencil_ring(at.z, PROBE_STEP))


def _ring_cases():
    """(chart, point) for every seeded instance of this file, then the
    finite-difference and the degenerate ambient, whose quotient fields
    read quotient_form."""
    cases = [sequence_instance(seed) for seed in SEQUENCE_SEEDS]
    cases.append((block_split_sequence(fd=True)[0], np.array([0.1 - 0.05j])))
    cases.append((kernel_compat_sequence(), np.array([0.15 + 0.1j])))
    # an ambient with its own finite-difference steps, which the sub and
    # quotient fields take, so the sub gate still reads the ambient's points
    seq, z = sequence_instance(1)
    amb = seq.ambient
    wide = ChartField(
        amb.m,
        amb.shape,
        amb.stack_fn,
        radius=amb.radius,
        d_fn=amb.d_fn,
        dd_fn=amb.dd_fn,
        fd_step=3e-4,
        fd_outer_step=2e-3,
        self_check=False,
    )
    cases.append((ExactSeqChart(wide, seq._j_fn, dj=seq._dj_fn), z))
    return cases


@pytest.mark.parametrize("case", range(len(SEQUENCE_SEEDS) + 3))
def test_stacked_ring_equals_fresh_per_point_records(case, monkeypatch):
    """Every row of the record, z and its probe ring, solved from the
    record's one read of the ambient at its gate points, equals the
    per-point oracle (SeqPoint) there bit for bit: each field's form,
    rank and pinv, the ambient's and the sub's dG, A and residual, and j,
    dj, q, dq, j dagger, q dagger, sigma and sigma dagger; z's row the
    quotient's solve and the three tensors too, which the record takes
    at z alone.  Every probe equals ring_fd over the oracle.  q, dq and
    the quotient's forms come from one quotient frame of the record's j:
    one ExactSeqChart._frames call over its 4m + 1 points."""
    seq, z = _ring_cases()[case]
    for field in (seq.sub_field, seq.quot_field):
        assert (field.fd_step, field.fd_outer_step) == (seq.ambient.fd_step, seq.ambient.fd_outer_step)
    frames = _count_rows(seq, "_frames", monkeypatch)
    at = seq.at(z)
    names = ("jdag", "qdag", "sigma", "sigma_dagger")
    probes = {(name, conj): at.probe(name, conj) for name in names for conj in (False, True)}
    at.dq
    assert frames == [4 * seq.m + 1]
    assert np.array_equal(at.zs, charts._gate_stencil(z, PROBE_STEP))
    assert len(at.quot.solves.a) == 1
    m, k, r = seq.m, seq.k, seq.r
    shapes = [(m, m, r, r), (m, m, k, k), (m, m, r - k, r - k)]
    assert [at.ambient.tensor.shape, at.sub.tensor.shape, at.quot.tensor.shape] == shapes
    oracle = {}
    for i, w in enumerate(at.zs):
        want = oracle[w.tobytes()] = SeqPoint(seq, w)
        for part in ("ambient", "sub", "quot"):
            got, field = getattr(at, part), getattr(want, part)
            assert np.array_equal(got.forms.gram[i], field.form.gram), part
            assert got.forms.rank[i] == field.form.rank, part
            assert np.array_equal(got.forms.pinv[i], field.form.pinv), part
            if part != "quot" or i == 0:
                for name in ("dg", "a", "residual"):
                    assert np.array_equal(getattr(got.solves, name)[i], getattr(field, name)), (part, name)
            if i == 0:
                assert np.array_equal(got.tensor, field.tensor), part
        for name in ("j", "dj", "q", "dq") + names:
            assert np.array_equal(getattr(at, name)[i], getattr(want, name)), name
    for (name, conj), fast in probes.items():
        slow = ring_fd(lambda w: getattr(oracle[w.tobytes()], name), at.z, PROBE_STEP, conj)
        assert np.array_equal(fast, slow), (name, conj)
    # solved before their forms or adjoints are read: the same bits
    solved_first = sequences._SeqRows(seq, at.zs)
    solved_first.probe("sigma")
    for part in ("ambient", "sub"):
        got, field = getattr(solved_first, part), getattr(at, part)
        assert np.array_equal(got.forms.gram, field.forms.gram), part
        assert np.array_equal(got.forms.pinv, field.forms.pinv), part
    for name in names:
        assert np.array_equal(getattr(solved_first, name), getattr(at, name)), name


def _jump_at(p):
    """G = diag(1, 1, |10 (w - p)|^2) on the disc of radius 0.9, which
    drops rank only at p."""
    poly = MatrixPolynomial(np.diag([1.0, 1.0, -10.0 * p[0]]), c1=np.diag([0.0, 0.0, 10.0])[None])
    return from_factor(poly, 1, radius=0.9)


Z_RING = np.array([0.1 + 0.05j])
# the four ring points of Z_RING, the rows 1 to 4 of its record
RING = charts._stencil_ring(Z_RING, PROBE_STEP)
# the one-point ring offsets, and a point near the edge of the disc of
# radius 0.9 whose ring point along each of them alone leaves the chart
# by the gate's margin
RING_STEPS = (PROBE_STEP, -PROBE_STEP, 1j * PROBE_STEP, -1j * PROBE_STEP)
TILTED = MatrixPolynomial(np.eye(3) + 0.1 * np.eye(3, k=1), c1=0.2 * np.eye(3, k=-1)[None])


def _near_the_edge(step):
    return np.array([step / abs(step) * (0.9 - 1.15e-3)])


def test_a_rank_jump_at_one_ring_point_names_it():
    """At each ring point w of z in turn, G = diag(1, 1, |10 (w' - p)|^2)
    drops rank only at p = w + s, the gate neighbor of w and of no other
    gate point.  The base point, the adjoint probes and the identity table
    (which probes no sigma when m = 1) pass; sigma's probe and the
    splitting raise RankJump naming that ring point and p, as a fresh
    record there does."""
    z = Z_RING
    for w in RING:
        p = w + 1e-3
        seq = ExactSeqChart(_jump_at(p), np.eye(3, 1))
        named = "rank 3 at %s but 2 at its stencil neighbor %s" % (charts._named(w), charts._named(p))
        with pytest.raises(RankJump) as fresh:
            SeqPoint(seq, w).sigma
        assert str(fresh.value) == named
        at = seq.at(z)
        at.ambient.solves, at.sub.solves, at.quot.solves
        at.probe("jdag"), at.probe("qdag")
        with pytest.raises(RankJump) as stacked:
            at.probe("sigma")
        assert str(stacked.value) == named
        demailly_residuals(seq, z)  # with m = 1 the table probes no sigma
        with pytest.raises(RankJump) as blocks:
            splitting_curvature_blocks(seq, z)
        assert str(blocks.value) == named


def test_a_singular_inclusion_at_a_ring_point_names_it():
    """j(w) = 10 (w - p) e1 vanishes at p, each ring point of z in turn,
    where w0 j is singular and the quotient frame is not defined.  The
    base point passes, and so does the probe of j dagger, which needs no
    quotient frame; the probe of q dagger, a fresh record's q at p, dq at
    p and the quotient's reads of a stack whose third row is p raise
    HermitiaError naming p, not numpy's LinAlgError."""
    z = Z_RING
    for p in RING:
        j, dj = vanishing_line(p, 2)
        seq = ExactSeqChart(constant_field(np.eye(2), 1, radius=0.9), j, dj=dj)
        at = seq.at(z)
        at.q, at.dq, at.ambient.solves, at.sub.solves
        at.probe("jdag")
        stack = np.array([z, z + 0.01, p, z - 0.01])
        reads = (
            lambda: at.probe("qdag"),
            lambda: seq.at(p).q,
            lambda: seq.at(p).dq,
            lambda: seq.quot_field.gram_stack(stack),
            lambda: seq.quot_field.d_stack(stack),
        )
        for read in reads:
            with pytest.raises(HermitiaError) as info:
                read()
            assert type(info.value) is HermitiaError
            assert str(info.value).startswith("w0 j is singular at %s:" % charts._named(p))


def _first_ring_error(seq, z):
    """The error the per-point ring raises: sigma read from the per-point
    oracle at each ring point in turn, each solving A_E, then A_S."""
    for w in charts._stencil_ring(z, PROBE_STEP):
        try:
            SeqPoint(seq, w).sigma
        except HermitiaError as err:
            return type(err), str(err)
    return None


def test_a_ring_that_leaves_the_chart_reads_only_inside_it():
    """The base point z passes its gate, but its ring point z + step
    leaves the chart by the gate's margin, for each of the four ring
    offsets.  The ring's forms are the centre rows of the read of its
    gates, so every probe, of j dagger and q dagger as of sigma and sigma
    dagger, raises the per-point ring's OutOfDomain, the record having
    read the ambient only at points that the per-point records at z and
    on the ring read, none of them at that ring point's stencil."""
    for step in RING_STEPS:
        z = _near_the_edge(step)
        seq = ExactSeqChart(from_factor(TILTED, 1, radius=0.9), np.eye(3, 1))
        kernel, reads = seq.ambient.stack_fn, []

        def counted(zs, kernel=kernel, reads=reads):
            reads.extend(w.tobytes() for w in zs)
            return kernel(zs)

        seq.ambient.stack_fn = counted
        want = _first_ring_error(seq, z)
        assert want[0] is OutOfDomain
        SeqPoint(seq, z).sigma
        oracle_reads = set(reads)
        reads.clear()
        at = seq.at(z)
        at.ambient.solves, at.sub.solves, at.quot.solves
        for name in ("jdag", "qdag", "sigma", "sigma_dagger"):
            with pytest.raises(OutOfDomain) as stacked:
                at.probe(name)
            assert (type(stacked.value), str(stacked.value)) == want, (step, name)
        assert reads and set(reads) <= oracle_reads
        outside = charts._gate_stencil(z + step, seq.ambient.fd_outer_step)
        assert not {w.tobytes() for w in outside} & set(reads)


def _sub_and_ambient_jumps(i, k):
    """The inclusion j = 10 (w - p1) e1, which vanishes at p1 = RING[i] +
    s, so the sub form drops rank at that gate neighbor of ring point i,
    in the ambient of :func:`_jump_at` p3 = RING[k] + s."""
    p1, p3 = RING[i] + 1e-3, RING[k] + 1e-3
    return ExactSeqChart(_jump_at(p3), *vanishing_line(p1, 3)), p1


def test_a_sub_jump_before_an_ambient_jump_raises_first():
    """The sub form drops rank at the gate neighbor RING[i] + s of one
    ring point and the ambient at that of another, RING[k] + s, for every
    pair of distinct ring points.  The per-point ring solves A_E, then
    A_S, at each ring point, so it raises the RankJump of the earlier of
    the two: the sub's when i < k, though the ambient's jump is a real
    one; and the stacked ring raises the same."""
    z = Z_RING
    for i, k in itertools.permutations(range(4), 2):
        seq, p1 = _sub_and_ambient_jumps(i, k)
        want = _first_ring_error(seq, z)
        if i < k:
            named = "rank 1 at %s but 0 at its stencil neighbor %s" % (charts._named(RING[i]), charts._named(p1))
            assert want == (RankJump, named)
            with pytest.raises(RankJump):
                chern_connection(seq.ambient, RING[k])  # the later ambient jump
        at = seq.at(z)
        at.ambient.solves, at.sub.solves, at.quot.solves
        with pytest.raises(RankJump) as stacked:
            at.probe("sigma")
        assert (RankJump, str(stacked.value)) == want, (i, k)


def _ring_fault_cases():
    """The charts and points z of the four tests above whose probe ring
    fails at a ring point while z passes, with the fault at each ring
    point in turn: a rank jump of the ambient at a gate neighbor of a ring
    point, a singular inclusion at a ring point, a ring point outside the
    chart, and a rank jump of the sub before one of the ambient."""
    cases = []
    for i, step in enumerate(RING_STEPS):
        cases += [
            (ExactSeqChart(_jump_at(RING[i] + 1e-3), np.eye(3, 1)), Z_RING),
            (ExactSeqChart(constant_field(np.eye(2), 1, radius=0.9), *vanishing_line(RING[i], 2)), Z_RING),
            (ExactSeqChart(from_factor(TILTED, 1, radius=0.9), np.eye(3, 1)), _near_the_edge(step)),
            (_sub_and_ambient_jumps(i, (i + 1) % 4)[0], Z_RING),
        ]
    return cases


def _point_record(seq, z):
    """The per-point oracle at z (SeqPoint) shaped as row 0 of a record,
    as far as the Codazzi corollaries and the second fundamental form
    read it: its fields are FieldAt records at z."""
    p = SeqPoint(seq, z)
    return SimpleNamespace(
        z=p.z,
        zs=p.z[None],
        j=p.j[None],
        q=p.q[None],
        qdag=p.qdag[None],
        sigma=p.sigma[None],
        sigma_dagger=p.sigma_dagger[None],
        ambient=p.ambient,
        sub=p.sub,
        quot=p.quot,
    )


@pytest.mark.parametrize("case", range(16))
def test_a_failing_ring_point_leaves_the_readers_at_z_exact(case, monkeypatch):
    """Where a ring point fails and z does not, codazzi_sub, codazzi_quot
    and second_fundamental_form at z return exactly what they return when
    fed the per-point oracle at z: the record's rows at z carry no error
    of its ring."""
    seq, z = _ring_fault_cases()[case]
    failing = []
    for name in ("jdag", "qdag", "sigma", "sigma_dagger"):
        try:
            seq.at(z).probe(name)
        except HermitiaError:
            failing.append(name)
    assert failing

    def read():
        out = [second_fundamental_form(seq, z)]
        size = seq.r - seq.k
        for a in range(seq.m):
            for b in range(seq.m):
                out.append(codazzi_sub(seq, z, a, b, np.ones(seq.k), np.arange(seq.k) + 1j))
                out.append(codazzi_quot(seq, z, a, b, np.ones(size), np.arange(size) - 2j))
        return out

    got = read()
    monkeypatch.setattr(seq, "at", lambda w: _point_record(seq, w))
    want = read()
    for name in ("point", "sigma", "sigma_dagger"):
        assert np.array_equal(getattr(got[0], name), getattr(want[0], name)), name
    assert got[0].dbar_part_residual == want[0].dbar_part_residual
    assert got[1:] == want[1:]


@pytest.mark.parametrize("seed", [0, 1])
def test_fd_inclusion_derivative_equals_the_per_direction_stencil(seed):
    """dj of an inclusion given without dj, and the (0,1) check of sigma,
    equal wirtinger_fd taken one direction at a time."""
    seq, z = sequence_instance(seed)
    fd_seq = ExactSeqChart(seq.ambient, seq._j_fn)
    h = seq.ambient.fd_step
    slow = np.stack([wirtinger_fd(fd_seq.j_at, z, a, h) for a in range(seq.m)])
    assert np.array_equal(fd_seq.dj_at(z), slow)
    at = fd_seq.at(z)
    worst = max(
        float(np.linalg.norm(at.q[0] @ wirtinger_fd(fd_seq.j_at, z, a, h, True))) for a in range(seq.m)
    )
    sff = second_fundamental_form(fd_seq, z)
    assert sff.dbar_part_residual == worst / (1.0 + float(np.linalg.norm(at.sigma[0])))


def test_solve_rejects_a_form_that_is_not_the_gate_read():
    """A form read before the solve must be the gate's centre read: here a
    kernel that breaks its row contract, so that its one-row read is off
    its row of the gate's stack in the last bits."""
    seq, z = sequence_instance(0)
    amb = seq.ambient
    record = FieldAt(amb, z)
    record.form  # read first, by the field's one-row read
    assert np.array_equal(record.a, chern_connection(amb, z).a)
    off = ChartField(
        amb.m,
        amb.shape,
        lambda zs: amb.stack_fn(zs) * (1.0 + 1e-15 * (len(zs) == 1)),
        radius=amb.radius,
        d_fn=amb.d_fn,
        dd_fn=amb.dd_fn,
        self_check=False,
    )
    record = FieldAt(off, z)
    record.form
    with pytest.raises(HermitiaError, match="gate"):
        record.a
    # solved first, the form is the gate's centre read
    assert np.array_equal(FieldAt(off, z).a, chern_connection(amb, z).a)


def _count_records(monkeypatch):
    """The number of points of every sequence record built."""
    records, init = [], sequences._SeqRows.__init__

    def counting_init(self, seq, zs):
        records.append(len(zs))
        init(self, seq, zs)

    monkeypatch.setattr(sequences._SeqRows, "__init__", counting_init)
    return records


@pytest.mark.parametrize("seed", JET_SEEDS)
def test_one_point_builds_one_ring_and_one_solve_per_field(seed, monkeypatch):
    """Identities, splitting, sigma and Codazzi at one point: one record
    of the 4m + 1 points z and its probe ring, with one read of the
    ambient at their gate points, whose centre rows give the forms of all
    three fields, and one solve_rows call per field: the ambient and the
    sub at all 4m + 1 points, the quotient at z.  The ambient kernel
    reads the (4m + 1)^2 gate points once, the 4m + 1 points once for the
    sub's dG, and z once for each of the sub's and the quotient's jets at
    z (the d and dd reads of each sharing its first-order part): 4 calls,
    whatever m.  Its dG is read at the 4m + 1 points for each of the two
    solves, and at z for each jet.  The inclusion's two kernels read
    every stack in one call: j at the gate points, whose centre rows are
    the record's j (shared by q, dq and sigma), dj once at the 4m + 1
    points, and each at the sub's solve and the two jets."""
    seq, z = sequence_instance(seed)
    seq.quot_field  # built ahead: its choice of route reads G at the chart centre
    n = 4 * seq.m
    rows = n + 1
    solves = _count_solves(monkeypatch)
    records = _count_records(monkeypatch)
    reads, d_reads = _count_ambient_reads(seq, monkeypatch)
    j_reads = _count_rows(seq, "_j_fn", monkeypatch)
    dj_reads = _count_rows(seq, "_dj_fn", monkeypatch)
    demailly_residuals(seq, z)
    splitting_curvature_blocks(seq, z)
    second_fundamental_form(seq, z)
    rng = np.random.default_rng(seed)
    for a in range(seq.m):
        for b in range(seq.m):
            codazzi_sub(seq, z, a, b, rand_vec(rng, seq.k), rand_vec(rng, seq.k))
            rk = seq.r - seq.k
            codazzi_quot(seq, z, a, b, rand_vec(rng, rk), rand_vec(rng, rk))
    assert records == [rows]
    assert solves == [(seq.ambient, rows), (seq.sub_field, rows), (seq.quot_field, 1)]
    assert Counter(reads) == Counter([rows * rows, rows, 1, 1])
    assert Counter(d_reads) == Counter([rows, rows, 1, 1])
    # the gates; the sub's solve; the two jets; the (0,1) check of sigma
    # at the 4m stencil points of z
    assert Counter(j_reads) == Counter([rows * rows, rows, 1, 1, n])
    # the record's dj, read once for sigma and dq; the sub's solve; the two jets
    assert Counter(dj_reads) == Counter([rows, rows, 1, 1])


def test_reading_the_ambient_alone_reads_nothing_else(monkeypatch):
    """at.ambient.solves reads the ambient's Gram kernel once, at the
    (4m + 1)^2 gate points of the record, and its dG once, at its 4m + 1
    points; it reads no inclusion, builds no quotient frame and no sub or
    quotient rows."""
    seq, z = sequence_instance(1)
    seq.quot_field  # built ahead: its choice of route reads G at the chart centre
    b = 4 * seq.m + 1
    calls = _count_solves(monkeypatch)
    reads, d_reads = _count_ambient_reads(seq, monkeypatch)
    j_reads = _count_rows(seq, "_j_fn", monkeypatch)
    frames = _count_rows(seq, "_frames", monkeypatch)
    at = seq.at(z)
    at.ambient.solves
    assert (reads, d_reads, j_reads, frames) == ([b * b], [b], [], [])
    assert calls == [(seq.ambient, b)]
    assert {"_sub", "_quot", "_gate_j", "_j", "_frames"}.isdisjoint(vars(at))


@pytest.mark.parametrize("codazzi", [codazzi_sub, codazzi_quot])
def test_codazzi_builds_no_probe_ring(codazzi, monkeypatch):
    """The Codazzi corollaries build one record, of z and its probe ring:
    4m + 1 points, and no other."""
    records = _count_records(monkeypatch)
    for seed in JET_SEEDS:
        seq, z = sequence_instance(seed)
        size = seq.k if codazzi is codazzi_sub else seq.r - seq.k
        codazzi(seq, z, 0, seq.m - 1, np.ones(size), np.arange(size) + 1j)
    assert records == [4 * sequence_instance(seed)[0].m + 1 for seed in JET_SEEDS]


@pytest.mark.parametrize(
    "make",
    [functools.partial(block_split_sequence, fd=True), kernel_compat_sequence],
    ids=["block_split_sequence", "kernel_compat_sequence"],
)
def test_quotient_form_route_without_a_full_positive_jet(make):
    """No analytic ambient derivatives, or a degenerate ambient: the
    quotient field reads quotient_form and differences it, exactly as a
    field built here does."""
    seq = make()
    seq = seq[0] if isinstance(seq, tuple) else seq
    z = np.array([0.15 + 0.1j])
    assert not seq.quot_field.analytic

    def ev(w):
        return quotient_form(LinearMap(seq.at(w).q[0]), seq.ambient.form_at(w)).gram

    oracle = ChartField(
        seq.m,
        seq.r - seq.k,
        lambda zs: np.stack([ev(w) for w in zs]),
        center=seq.center,
        radius=seq.ambient.radius,
        self_check=False,
    )
    assert np.array_equal(seq.quot_field.gram(z), hermitize(ev(z)))
    assert np.array_equal(seq.quot_field.gram(z), oracle.gram(z))
    assert np.array_equal(seq.quot_field.d(z), oracle.d(z))
    assert np.array_equal(seq.quot_field.dd(z), oracle.dd(z))
    assert np.array_equal(
        curvature_tensor(seq.quot_field, z).tensor, curvature_tensor(oracle, z).tensor
    )


@pytest.mark.parametrize(
    "make",
    [functools.partial(block_split_sequence, fd=True), kernel_compat_sequence],
    ids=["block_split_sequence", "kernel_compat_sequence"],
)
def test_quotient_form_kernel_reads_each_stack_once(make, monkeypatch):
    """The quotient_form kernel reads the ambient at a whole stack in one
    call and equals quotient_form of each point's form_at read, row by
    row, bit for bit."""
    seq = make()
    seq = seq[0] if isinstance(seq, tuple) else seq
    z = np.array([0.15 + 0.1j])
    zs = np.concatenate([charts._gate_stencil(z, 1e-3), charts._stencil_ring(z, PROBE_STEP)])
    assert not seq.quot_field.analytic
    per_row = hermitize(
        np.stack([quotient_form(LinearMap(seq.at(w).q[0]), seq.ambient.form_at(w)).gram for w in zs])
    )
    reads = []
    kernel = seq.ambient.stack_fn

    def counting(ws):
        reads.append(len(ws))
        return kernel(ws)

    monkeypatch.setattr(seq.ambient, "stack_fn", counting)
    assert np.array_equal(seq.quot_field.gram_stack(zs), per_row)
    assert reads == [len(zs)]


def test_quotient_form_kernel_names_each_non_finite_row():
    """A NaN in one row of the degenerate ambient's stack raises NonFinite
    naming that row's point, as the row's form_at read does."""
    seq = kernel_compat_sequence()
    amb = seq.ambient
    zs = charts._gate_stencil(np.array([0.15 + 0.1j]), 1e-3)
    for p in zs:
        def poisoned(ws, p=p):
            hit = np.array([np.array_equal(w, p) for w in ws])
            return np.where(hit[:, None, None], np.nan, amb.stack_fn(ws))

        bad = ExactSeqChart(
            ChartField(1, 3, poisoned, radius=0.9, d_fn=amb.d_fn, dd_fn=amb.dd_fn, self_check=False),
            seq.j_at(seq.center),
        )
        assert not bad.quot_field.analytic
        where = "Gram matrix is not finite at %s" % np.array2string(p, precision=3)
        with pytest.raises(NonFinite) as info:
            bad.ambient.form_at(p)
        assert str(info.value) == where
        with pytest.raises(NonFinite) as info:
            bad.quot_field.gram_stack(zs)
        assert str(info.value) == where


def test_quotient_jet_off_the_positive_locus_raises_not_positive():
    """Positive-definite at the center; at z = 0.5 the factor's last
    column vanishes, so the Gram matrix is singular there and the jet's
    Cholesky factorization fails with a typed error naming the point."""
    l0 = np.diag([1.0, 1.0, -0.5]).astype(complex)
    l0[0, 1] = 0.2
    l1 = np.zeros((1, 3, 3), dtype=complex)
    l1[0, 2, 2] = 1.0
    l1[0, 0, 1] = 0.3
    amb = from_factor(MatrixPolynomial(l0, c1=l1), 1, radius=0.9)
    seq = ExactSeqChart(amb, np.eye(3, 1))
    assert seq.quot_field.analytic
    assert seq.quot_field.gram(np.array([0.2 - 0.1j])).shape == (2, 2)
    singular = np.array([0.5 + 0.0j])
    assert not np.any(amb.gram(singular)[:, 2])
    for read in (seq.quot_field.gram, seq.quot_field.d, seq.quot_field.dd):
        with pytest.raises(NotPositiveAtPoint, match=r"0\.5"):
            read(singular)


def test_quotient_jet_of_a_non_finite_gram_raises_non_finite():
    def stack_fn(zs):
        hit = np.abs(zs[:, 0] - 0.5) < 1e-9
        return np.where(hit[:, None, None], np.nan, np.eye(2))

    amb = ChartField(
        1,
        2,
        stack_fn,
        radius=0.9,
        d_fn=lambda zs: np.zeros((len(zs), 1, 2, 2)),
        dd_fn=lambda zs: np.zeros((len(zs), 1, 1, 2, 2)),
        self_check=False,
    )
    seq = ExactSeqChart(amb, np.eye(2, 1))
    assert seq.quot_field.analytic
    with pytest.raises(NonFinite, match=r"0\.5"):
        seq.quot_field.gram(np.array([0.5 + 0.0j]))


def test_base_point_record_is_shared():
    seq, z = sequence_instance(3)
    assert seq.at(z) is seq.at(z)
    assert seq.at(z.copy()) is seq.at(z)


def test_probes_keep_the_base_point_record():
    seq, z = sequence_instance(1)
    base = seq.at(z)
    demailly_residuals(seq, z)
    splitting_curvature_blocks(seq, z)
    assert seq.at(z) is base
    assert seq.at(z + 1e-3) is not base


def test_a_dropped_record_leaves_no_cyclic_garbage():
    """A sequence record holds no reference cycle, so refcounting frees
    it as soon as the chart drops it: with the collector off, the identity
    table at 20 distinct points (each replacing the kept record), then
    dropping the last kept record, leaves nothing for gc.collect."""
    seq, z = sequence_instance(1)
    demailly_residuals(seq, z)
    gc.collect()
    gc.disable()
    try:
        for i in range(20):
            demailly_residuals(seq, z + 1e-3 * (i + 1))
        del seq._at  # the chart's cache of its latest record
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


@pytest.mark.parametrize("case", range(16))
def test_a_record_that_raised_leaves_no_cyclic_garbage(case):
    """A record keeps the errors of its failing points, stripped of their
    tracebacks and chained errors, and raises a copy of one when read, so
    a record whose probe raised holds no reference cycle either: on five
    copies of each ring fault fixture, a splitting that raises, then
    dropping the chart's kept record, leave nothing for gc.collect."""
    copies = [_ring_fault_cases()[case] for _ in range(5)]
    gc.collect()
    gc.disable()
    try:
        for seq, z in copies:
            with pytest.raises(HermitiaError):
                splitting_curvature_blocks(seq, z)
            del seq._at  # the chart's cache of its latest record
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0


def _nan_on_first_call(monkeypatch):
    """Make sequences._rel return NaN on its first call and its own value
    after."""
    rel, calls = sequences._rel, []

    def first_is_nan(*args):
        calls.append(1)
        return float("nan") if len(calls) == 1 else rel(*args)

    monkeypatch.setattr(sequences, "_rel", first_is_nan)


def test_a_nan_identity_residual_makes_its_line_nan(monkeypatch):
    """The first residual of the inclusion line read as NaN: the line is
    NaN, where a running max from 0.0 once read it as a number."""
    _nan_on_first_call(monkeypatch)
    out = demailly_residuals(*sequence_instance(0))
    assert np.isnan(out["inclusion"])
    assert all(np.isfinite(v) for key, v in out.items() if key != "inclusion")


def test_a_nan_reassembly_residual_makes_the_splitting_residual_nan(monkeypatch):
    _nan_on_first_call(monkeypatch)
    assert np.isnan(splitting_curvature_blocks(*sequence_instance(0)).reassembly_residual)


def test_a_nan_dbar_part_fails_the_second_fundamental_form(monkeypatch):
    """dbar j read as NaN: the (0,1)-part gate of sigma raises, where it
    once returned a NaN residual."""
    seq, z = sequence_instance(0)
    j_fd = seq._j_fd

    def nan_dbar(zs, conjugate=False):
        return j_fd(zs, conjugate) * (np.nan if conjugate else 1.0)

    monkeypatch.setattr(seq, "_j_fd", nan_dbar)
    with pytest.raises(HermitiaError, match=r"\(0,1\)-part of size nan"):
        second_fundamental_form(seq, z)


def test_results_do_not_alias_the_shared_record():
    seq, z = sequence_instance(3)
    first = second_fundamental_form(seq, z)
    want = first.sigma.copy()
    first.sigma[...] = 0.0
    first.sigma_dagger[...] = 0.0
    first.point[...] = 0.0
    again = second_fundamental_form(seq, z)
    assert np.array_equal(again.sigma, want)
    assert np.array_equal(again.point, z)


def test_codazzi_reads_the_ambient_curvature_once(monkeypatch):
    """One ambient solve gives A_E and the curvature, and sigma adds the
    sub solve, both over the record's 4m + 1 points from its one read of
    the ambient at their gate points; the sub solve's dG reads G at the
    4m + 1 points once more.  The quotient forms are the centre rows of
    that read, so they read no ambient."""
    seq, z = sequence_instance(1)
    assert seq.m == 2
    seq.quot_field  # built ahead: its choice of route reads G at the chart centre
    calls = _count_solves(monkeypatch)
    reads, d_reads = _count_ambient_reads(seq, monkeypatch)
    rng = np.random.default_rng(5)
    for a in range(seq.m):
        for b in range(seq.m):
            codazzi_sub(seq, z, a, b, rand_vec(rng, seq.k), rand_vec(rng, seq.k))
            rk = seq.r - seq.k
            codazzi_quot(seq, z, a, b, rand_vec(rng, rk), rand_vec(rng, rk))
    b = 4 * seq.m + 1
    assert calls == [(seq.ambient, b), (seq.sub_field, b)]
    assert (reads, d_reads) == ([b * b, b], [b, b])


def test_constructing_a_sequence_reads_no_quotient_form(monkeypatch):
    calls = []

    def counting(qmap, form):
        calls.append(qmap)
        return quotient_form(qmap, form)

    monkeypatch.setattr(sequences, "quotient_form", counting)
    for seed in range(6):
        sequence_instance(seed)
    seq = kernel_compat_sequence()
    assert calls == []
    seq.quot_field.gram(np.array([0.15 + 0.1j]))
    assert len(calls) == 1


def test_inclusion_shape_mismatch_rejected():
    amb = constant_field(np.eye(2), 1, radius=2.0)
    with pytest.raises(HermitiaError):
        ExactSeqChart(amb, np.eye(3, 1))


def test_inclusion_must_be_proper():
    amb = constant_field(np.eye(2), 1, radius=2.0)
    with pytest.raises(HermitiaError):
        ExactSeqChart(amb, np.eye(2))


def test_inclusion_must_have_full_column_rank():
    amb = constant_field(np.eye(3), 1, radius=2.0)
    j = np.zeros((3, 2))
    j[0, 0] = 1.0
    j[0, 1] = 1.0
    with pytest.raises(HermitiaError):
        ExactSeqChart(amb, j)


def test_antiholomorphic_inclusion_rejected():
    amb = constant_field(np.eye(2), 1, radius=2.0)
    with pytest.raises(NotHolomorphic):
        ExactSeqChart(amb, conj_line_j)


# ---------------------------------------------------------------------------
# second fundamental form


def test_second_form_tautological():
    seq = taut_sequence()
    z = np.array([0.3 + 0.1j])
    sff = second_fundamental_form(seq, z)
    assert abs(sff.sigma.item() - 1.0) < 1e-12
    assert abs(sff.sigma_dagger.item() - 1.1 ** -2) < 1e-10
    assert sff.dbar_part_residual < 1e-10


def test_second_form_vanishes_for_split_metric():
    seq, _, _ = block_split_sequence()
    sff = second_fundamental_form(seq, np.array([0.21 - 0.13j]))
    assert np.linalg.norm(sff.sigma) < 1e-13


def test_second_form_annihilates_sub_kernel():
    seq = kernel_compat_sequence()
    z = np.array([0.15 + 0.1j])
    sub_gram = seq.sub_field.gram(z)
    assert abs(sub_gram[1, 1]) < 1e-14  # e3 direction is in the form kernel
    sff = second_fundamental_form(seq, z)
    assert np.linalg.norm(sff.sigma[:, :, 1]) < 1e-12
    assert np.linalg.norm(sff.sigma) > 0.05


@settings(max_examples=25, deadline=None)
@given(
    st.floats(-0.6, 0.6),
    st.floats(-0.6, 0.6),
)
def test_tautological_grams_are_reciprocal(x, y):
    seq = taut_sequence()
    z = np.array([x + 1j * y])
    bs = seq.sub_field.gram(z).item()
    bq = seq.quot_field.gram(z).item()
    assert abs(bs * bq - 1.0) < 1e-9
    assert abs(second_fundamental_form(seq, z).sigma.item() - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# the derivative identity table


def test_identity_table_tautological():
    seq = taut_sequence()
    res = demailly_residuals(seq, np.array([0.3 + 0.1j]))
    assert set(res) == {
        "inclusion",
        "projection",
        "inclusion_adjoint",
        "projection_adjoint",
        "second_form_closed",
    }
    assert max(res.values()) < 1e-6


def test_identity_table_split_metric():
    seq, _, _ = block_split_sequence()
    res = demailly_residuals(seq, np.array([0.21 - 0.13j]))
    assert max(res.values()) < 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_identity_table_random_instances(seed):
    seq, z = sequence_instance(seed)
    res = demailly_residuals(seq, z)
    assert max(res.values()) < 1e-5


def test_identity_table_degenerate_ambient():
    seq = kernel_compat_sequence()
    res = demailly_residuals(seq, np.array([0.15 + 0.1j]))
    assert max(res.values()) < 1e-6


# ---------------------------------------------------------------------------
# curvature comparison formulas


def test_codazzi_tautological_frozen():
    seq = taut_sequence()
    zero = np.zeros(1)
    assert abs(codazzi_sub(seq, zero, 0, 0, [1.0], [1.0]) - (-1.0)) < 1e-9
    assert abs(codazzi_quot(seq, zero, 0, 0, [1.0], [1.0]) - 1.0) < 1e-9


def test_codazzi_tautological_off_center():
    seq = taut_sequence()
    z = np.array([0.3 + 0.1j])
    want_sub = curvature_tensor(seq.sub_field, z).tensor[0, 0, 0, 0]
    want_quot = curvature_tensor(seq.quot_field, z).tensor[0, 0, 0, 0]
    assert abs(codazzi_sub(seq, z, 0, 0, [1.0], [1.0]) - want_sub) < 1e-8
    assert abs(codazzi_quot(seq, z, 0, 0, [1.0], [1.0]) - want_quot) < 1e-5


@pytest.mark.parametrize("seed", range(12))
def test_codazzi_matches_intrinsic_curvature(seed):
    seq, z = sequence_instance(seed)
    r_sub = curvature_tensor(seq.sub_field, z).tensor
    r_quot = curvature_tensor(seq.quot_field, z).tensor
    rng = np.random.default_rng(1000 + seed)
    for a in range(seq.m):
        for b in range(seq.m):
            s, t = rand_vec(rng, seq.k), rand_vec(rng, seq.k)
            got = codazzi_sub(seq, z, a, b, s, t)
            want = pair(r_sub, a, b, s, t)
            assert abs(got - want) <= 1e-4 * (1 + abs(want))
            u, v = rand_vec(rng, seq.r - seq.k), rand_vec(rng, seq.r - seq.k)
            got = codazzi_quot(seq, z, a, b, u, v)
            want = pair(r_quot, a, b, u, v)
            assert abs(got - want) <= 1e-4 * (1 + abs(want))


@pytest.mark.parametrize("seed", range(8))
def test_curvature_monotone_under_sub_and_quotient(seed):
    """Sub curvature only decreases, quotient curvature only increases."""
    seq, z = sequence_instance(seed)
    at = seq.at(z)
    j, qdag = at.j[0], at.qdag[0]
    r_amb = curvature_tensor(seq.ambient, z).tensor
    r_sub = curvature_tensor(seq.sub_field, z).tensor
    r_quot = curvature_tensor(seq.quot_field, z).tensor
    rng = np.random.default_rng(2000 + seed)
    for a in range(seq.m):
        s = rand_vec(rng, seq.k)
        assert pair(r_sub, a, a, s, s).real <= pair(r_amb, a, a, j @ s, j @ s).real + 1e-8
        u = rand_vec(rng, seq.r - seq.k)
        assert pair(r_quot, a, a, u, u).real >= pair(r_amb, a, a, qdag @ u, qdag @ u).real - 1e-6


# ---------------------------------------------------------------------------
# splitting the contracted ambient curvature


def test_splitting_blocks_tautological():
    seq = taut_sequence()
    blocks = splitting_curvature_blocks(seq, np.zeros(1))
    assert abs(blocks.ss[0, 0, 0, 0] - (-1.0)) < 1e-9
    assert abs(blocks.qq[0, 0, 0, 0] - 1.0) < 1e-5
    assert np.linalg.norm(blocks.sq) < 1e-8
    assert np.linalg.norm(blocks.qs) < 1e-8
    assert blocks.reassembly_residual < 1e-4


def test_splitting_blocks_decouple_for_split_metric():
    seq, f1, f2 = block_split_sequence()
    z = np.array([0.21 - 0.13j])
    blocks = splitting_curvature_blocks(seq, z)
    r1 = curvature_tensor(f1, z).tensor
    r2 = curvature_tensor(f2, z).tensor
    assert np.linalg.norm(blocks.ss - r1.transpose(0, 1, 3, 2)) < 1e-10
    assert np.linalg.norm(blocks.qq - r2.transpose(0, 1, 3, 2)) < 1e-8
    assert np.linalg.norm(blocks.sq) < 1e-10
    assert np.linalg.norm(blocks.qs) < 1e-10
    assert blocks.reassembly_residual < 1e-7


@pytest.mark.parametrize("seed", range(8))
def test_splitting_reassembles_ambient_curvature(seed):
    seq, z = sequence_instance(seed)
    blocks = splitting_curvature_blocks(seq, z)
    assert blocks.reassembly_residual < 1e-4


# ---------------------------------------------------------------------------
# curvature of a sum of forms


@pytest.mark.parametrize("seed", range(9))
def test_sum_curvature_matches_direct_route(seed):
    b1, b2, z, _ = sum_instance(seed)
    assembled = sum_curvature(b1, b2, z)
    direct = curvature_tensor(sum_field(b1, b2), z)
    err = np.linalg.norm(assembled.tensor - direct.tensor)
    assert err <= 1e-8 * (1 + np.linalg.norm(direct.tensor))


def test_stacked_sum_curvature_equals_the_per_pair_loop():
    """The sum's tensor, one stacked product over all coordinate pairs,
    equals the per-pair loop bit for bit on every sum instance."""
    for seed in range(60):
        b1, b2, z, _ = sum_instance(seed)
        t1, t2 = curvature_tensor(b1, z), curvature_tensor(b2, z)
        gq = sum_quotient_form(t1.form, t2.form).gram
        want = sum_curvature_loop(t1.tensor, t2.tensor, t1.a, t2.a, gq)
        assert np.array_equal(sum_curvature(b1, b2, z).tensor, want), seed


def test_sum_instances_cover_degenerate_kinds():
    kinds = {sum_instance(seed)[3] for seed in range(9)}
    assert kinds == {0, 1, 2}


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_sum_curvature_blind_to_kernel_gauge(seed):
    """Kernel-valued connection changes must not move the assembled sum:
    the per-pair formula fed the connections A_i + K_i(z) gives the
    package's tensor."""
    b1, b2, z, kind = sum_instance(seed)
    assert kind != 0  # degenerate summand present, so the gauge move is real
    p1 = smooth_kernel_perturbation(b1, z, seed=seed)
    p2 = smooth_kernel_perturbation(b2, z, seed=seed + 7)
    assert np.linalg.norm(p1(z)) + np.linalg.norm(p2(z)) > 1e-3
    base = sum_curvature(b1, b2, z)
    t1, t2 = curvature_tensor(b1, z), curvature_tensor(b2, z)
    gq = sum_quotient_form(t1.form, t2.form).gram
    moved = sum_curvature_loop(t1.tensor, t2.tensor, t1.a + p1(z), t2.a + p2(z), gq)
    err = np.linalg.norm(moved - base.tensor)
    assert err <= 1e-8 * (1 + np.linalg.norm(base.tensor))


@pytest.mark.parametrize("m", [1, 2])
def test_sum_curvature_reuses_the_summand_solves(m, monkeypatch):
    rng = np.random.default_rng(np.random.SeedSequence([59, m]))
    reads = []

    def counted(base):
        def stack_fn(zs):
            reads.extend(zs)
            return base.stack_fn(zs)

        return ChartField(
            m, 2, stack_fn, radius=base.radius, d_fn=base.d_fn, dd_fn=base.dd_fn, self_check=False
        )

    solves = []
    solve_rows = charts.solve_rows

    def counting(field, zs, grams, forms):
        solves.extend([field] * len(zs))
        return solve_rows(field, zs, grams, forms)

    monkeypatch.setattr(charts, "solve_rows", counting)
    b1, b2 = counted(random_pd_field(rng, m, 2)), counted(random_pd_field(rng, m, 2))
    sum_curvature(b1, b2, np.full(m, 0.1 + 0.05j))
    assert solves == [b1, b2]
    assert len(reads) == 2 * (4 * m + 1)


def test_sum_curvature_form_is_the_sum():
    b1, b2, z, _ = sum_instance(3)
    out = sum_curvature(b1, b2, z)
    assert np.allclose(out.form.gram, b1.gram(z) + b2.gram(z))
