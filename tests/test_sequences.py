import functools
from collections import Counter

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
    charts,
    sequences,
)
from hermitia.charts import (
    PROBE_STEP,
    RANK_TOL,
    ChartField,
    FieldAt,
    chern_connection,
    curvature_tensor,
    ring_fd,
)
from hermitia.fields import MatrixPolynomial, constant_field, from_factor, sum_field
from hermitia.forms import HermitianForm, LinearMap, adjoint, hermitize, quotient_form
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

from oracles import smooth_kernel_perturbation, wirtinger_fd


def taut_sequence(radius=2.0):
    """The line (1, z) inside the trivially-metrized C^2."""
    amb = constant_field(np.eye(2), 1, radius=radius)
    return ExactSeqChart(
        amb,
        lambda z: np.array([[1.0], [z[0]]]),
        dj=lambda z: np.array([[[0.0], [1.0]]]),
        name="taut",
    )


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
    assert np.allclose(seq.q_at(np.zeros(1)), [[0.0, 1.0]])
    assert np.allclose(seq.q_at(z), [[-0.3 - 0.1j, 1.0]])
    assert abs(seq.q_at(z) @ seq.j_at(z)) < 1e-14


def test_quotient_frame_kills_inclusion_generically():
    seq, z = sequence_instance(4)
    assert np.linalg.norm(seq.q_at(z) @ seq.j_at(z)) < 1e-12


def test_quotient_frame_derivative_matches_stencil():
    seq, z = sequence_instance(2)
    h = 1e-5
    for a in range(seq.m):
        e = np.zeros(seq.m, dtype=complex)
        e[a] = 1.0
        fd = (
            seq.q_at(z + h * e)
            - seq.q_at(z - h * e)
            - 1j * seq.q_at(z + 1j * h * e)
            + 1j * seq.q_at(z - 1j * h * e)
        ) / (4 * h)
        assert np.linalg.norm(seq.dq_at(z)[a] - fd) < 1e-8


def test_induced_grams_tautological():
    seq = taut_sequence()
    z = np.array([0.3 + 0.1j])
    assert abs(seq.sub_field.gram(z).item() - 1.1) < 1e-12
    assert abs(seq.quot_field.gram(z).item() - 1.0 / 1.1) < 1e-10


def test_pointwise_adjoints_are_one_sided_inverses():
    seq, z = sequence_instance(6)
    at = seq.at(z)
    assert np.linalg.norm(at.jdag @ at.j - np.eye(seq.k)) < 1e-10
    assert np.linalg.norm(at.q @ at.qdag - np.eye(seq.r - seq.k)) < 1e-10


def eager_seq_data(seq, z):
    """Every pointwise sequence quantity, built in one pass in dependency
    order: the reference the lazily computed record must reproduce."""
    out = {"j": seq.j_at(z), "dj": seq.dj_at(z), "q": seq.q_at(z), "dq": seq.dq_at(z)}
    fields = {"ambient": seq.ambient, "sub": seq.sub_field, "quot": seq.quot_field}
    b = {}
    for key, field in fields.items():
        out[key + ".form"] = field.gram(z)
        out[key + ".a"] = chern_connection(field, z).a
        out[key + ".tensor"] = curvature_tensor(field, z).tensor
        b[key] = HermitianForm(out[key + ".form"], rank_tol=RANK_TOL)
    out["jdag"] = adjoint(LinearMap(out["j"]), b["sub"], b["ambient"]).matrix
    out["qdag"] = adjoint(LinearMap(out["q"]), b["ambient"], b["quot"]).matrix
    out["sigma"] = np.stack(
        [
            out["q"] @ (out["dj"][a] + out["ambient.a"][a] @ out["j"] - out["j"] @ out["sub.a"][a])
            for a in range(seq.m)
        ]
    )
    out["sigma_dagger"] = np.stack(
        [adjoint(LinearMap(out["sigma"][a]), b["sub"], b["quot"]).matrix for a in range(seq.m)]
    )
    return out


def _seq_cases():
    cases = [sequence_instance(seed) for seed in range(6)]
    cases.append((kernel_compat_sequence(), np.array([0.15 + 0.1j])))
    return cases


@pytest.mark.parametrize("case", range(7))
def test_lazy_seq_data_equals_eager_oracle(case):
    seq, z = _seq_cases()[case]
    want = eager_seq_data(seq, z)
    at = seq.at(z)
    for name, value in want.items():
        got = at
        for part in name.split("."):
            got = getattr(got, part)
        got = got.gram if isinstance(got, HermitianForm) else got
        assert np.array_equal(got, value), name


def _count_solves(monkeypatch):
    """Record the field of every connection solve of a FieldAt record:
    one entry per constant-rank gate run alone, and one per record of a
    stacked solve."""
    calls = []
    gate, stack = charts._check_constant_rank, charts.solve_stack

    def counting(field, w):
        calls.append(field)
        return gate(field, w)

    def counting_stack(records):
        calls.extend(rec.field for rec in records)
        return stack(records)

    monkeypatch.setattr(charts, "_check_constant_rank", counting)
    monkeypatch.setattr(charts, "solve_stack", counting_stack)
    return calls


def _count_ambient_reads(seq, monkeypatch):
    """The number of rows of every call of the ambient's Gram kernel and of
    its d_fn."""
    reads, d_reads = [], []
    kernel, d_kernel = seq.ambient.stack_fn, seq.ambient.d_fn

    def counting_kernel(zs):
        reads.append(len(zs))
        return kernel(zs)

    def counting_d(zs):
        d_reads.append(len(zs))
        return d_kernel(zs)

    monkeypatch.setattr(seq.ambient, "stack_fn", counting_kernel)
    monkeypatch.setattr(seq.ambient, "d_fn", counting_d)
    return reads, d_reads


@pytest.mark.parametrize("name", ["jdag", "qdag"])
def test_adjoint_probe_solves_no_connection(monkeypatch, name):
    """The base record's j dagger or q dagger solves no connection, and
    their probes read the ambient once, at the 4m ring points for the
    ring's forms: no gate read and no dG read.  Only sigma's probe reads
    the ring's gates and dG (the sub's dG reads G at the 4m ring points
    once more)."""
    seq, z = sequence_instance(3)
    seq.quot_field  # built ahead: its choice of route reads G at the chart centre
    n = 4 * seq.m
    at = seq.at(z)
    calls = _count_solves(monkeypatch)
    getattr(at, name)  # the base record's forms
    assert calls == []
    reads, d_reads = _count_ambient_reads(seq, monkeypatch)
    at.probe(name)
    at.probe(name, conjugate=True)
    assert (reads, d_reads, calls) == ([n], [], [])
    at.probe("sigma")  # the gates, then dG of the ambient and of the sub
    assert (reads, d_reads, calls) == ([n, n * (n + 1), n], [n, n], [])
    at.sigma  # the second fundamental form does need A_E and A_S
    assert calls == [seq.ambient, seq.sub_field]


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
    oracle = quotient_form(LinearMap(seq.q_at(z)), seq.ambient.form_at(z)).gram
    gram = seq.quot_field.gram(z)
    assert np.linalg.norm(gram - oracle) <= 1e-12 * np.linalg.norm(oracle)
    fd = seq.quot_field.finite_difference_copy()
    assert _stack_error(seq.quot_field.d(z), fd.d(z)) <= 1e-6
    assert _stack_error(seq.quot_field.dd(z), fd.dd(z)) <= 1e-5
    r_jet = curvature_tensor(seq.quot_field, z).tensor
    r_fd = curvature_tensor(fd, z).tensor
    assert np.linalg.norm(r_jet - r_fd) <= 1e-5 * (1.0 + np.linalg.norm(r_fd))


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
    """The fast path (one ring of shared records, all directions at once)
    against the slow one (a fresh record at each stencil point of
    wirtinger_fd, one direction at a time)."""
    seq, z = sequence_instance(seed)
    at = seq.at(z)
    for name in ("jdag", "qdag", "sigma", "sigma_dagger"):
        for conj in (False, True):
            fast = at.probe(name, conj)
            assert fast.shape[0] == seq.m
            for a in range(seq.m):
                slow = wirtinger_fd(lambda w: getattr(sequences._SeqAt(seq, w), name), at.z, a, PROBE_STEP, conj)
                assert np.array_equal(fast[a], slow), (name, a, conj)
    assert np.array_equal(at.ring.zs, charts._stencil_ring(at.z, PROBE_STEP))


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
def test_stacked_ring_equals_fresh_per_point_records(case):
    """Every row of the stacked ring, its forms from the one read of the
    ring points and its ambient and sub solves from the one stacked read
    of their gates, equals a fresh per-point record bit for bit; so does
    every probe, against ring_fd over fresh records."""
    seq, z = _ring_cases()[case]
    for field in (seq.sub_field, seq.quot_field):
        assert (field.fd_step, field.fd_outer_step) == (seq.ambient.fd_step, seq.ambient.fd_outer_step)
    at = seq.at(z)
    names = ("jdag", "qdag", "sigma", "sigma_dagger")
    probes = {(name, conj): at.probe(name, conj) for name in names for conj in (False, True)}
    ring = at.ring
    assert np.array_equal(ring.zs, charts._stencil_ring(at.z, PROBE_STEP))
    solved = dict(zip(("ambient", "sub"), ring.solved))
    for i, w in enumerate(ring.zs):
        fresh = sequences._SeqAt(seq, w)
        for part in ("ambient", "sub", "quot"):
            assert np.array_equal(getattr(ring, part).gram[i], getattr(fresh, part).form.gram), part
        for part in ("ambient", "sub"):
            forms, want = getattr(ring, part), getattr(fresh, part)
            assert forms.rank[i] == want.form.rank, part
            assert np.array_equal(forms.pinv[i], want.form.pinv), part
            for name in ("dg", "a", "residual"):
                assert np.array_equal(getattr(solved[part], name)[i], getattr(want, name)), (part, name)
        for name in ("j", "q") + names:
            assert np.array_equal(getattr(ring, name)[i], getattr(fresh, name)), name
    for (name, conj), fast in probes.items():
        slow = ring_fd(lambda w: getattr(sequences._SeqAt(seq, w), name), at.z, PROBE_STEP, conj)
        assert np.array_equal(fast, slow), (name, conj)


def test_a_rank_jump_at_one_ring_point_names_it():
    """G = diag(1, 1, |10 (w - p)|^2) drops rank only at p, the gate
    neighbor z + h + s of the first ring point z + h and of no other gate
    point.  The base point, the adjoint probes and the identity table
    (which probes no sigma when m = 1) pass; sigma's probe and the
    splitting raise RankJump naming that ring point and p, as a fresh
    record there does."""
    z = np.array([0.1 + 0.05j])
    w = z + PROBE_STEP
    p = w + 1e-3
    poly = MatrixPolynomial(np.diag([1.0, 1.0, -10.0 * p[0]]), c1=np.diag([0.0, 0.0, 10.0])[None])
    seq = ExactSeqChart(from_factor(poly, 1, radius=0.9), np.eye(3, 1))
    named = "rank 3 at %s but 2 at its stencil neighbor %s" % (charts._named(w), charts._named(p))
    with pytest.raises(RankJump) as fresh:
        sequences._SeqAt(seq, w).sigma
    assert str(fresh.value) == named
    at = seq.at(z)
    at.ambient.a, at.sub.a, at.quot.a
    at.probe("jdag"), at.probe("qdag")
    with pytest.raises(RankJump) as stacked:
        at.probe("sigma")
    assert str(stacked.value) == named
    demailly_residuals(seq, z)  # with m = 1 the table probes no sigma
    with pytest.raises(RankJump) as blocks:
        splitting_curvature_blocks(seq, z)
    assert str(blocks.value) == named


def _first_ring_error(seq, z):
    """The error the per-point ring raises: sigma read at a fresh record
    at each ring point in turn, each solving A_E, then A_S."""
    for w in charts._stencil_ring(z, PROBE_STEP):
        try:
            sequences._SeqAt(seq, w).sigma
        except HermitiaError as err:
            return type(err), str(err)
    return None


def test_a_ring_that_leaves_the_chart_reads_only_inside_it():
    """The base point z passes its gate, but the third ring point z + ih
    leaves the chart by the gate's margin: the stacked ring raises the
    per-point ring's OutOfDomain, having read the ambient only at points
    the per-point ring reads, none of them at that ring point's stencil."""
    z = np.array([1j * (0.9 - 1.15e-3)])
    poly = MatrixPolynomial(np.eye(3) + 0.1 * np.eye(3, k=1), c1=0.2 * np.eye(3, k=-1)[None])
    seq = ExactSeqChart(from_factor(poly, 1, radius=0.9), np.eye(3, 1))
    kernel, reads = seq.ambient.stack_fn, []

    def counted(zs):
        reads.extend(w.tobytes() for w in zs)
        return kernel(zs)

    seq.ambient.stack_fn = counted
    want = _first_ring_error(seq, z)
    assert want[0] is OutOfDomain
    oracle_reads = set(reads)
    at = seq.at(z)
    at.ambient.a, at.sub.a, at.quot.a
    at.probe("jdag"), at.probe("qdag")
    reads.clear()
    with pytest.raises(OutOfDomain) as stacked:
        at.probe("sigma")
    assert (type(stacked.value), str(stacked.value)) == want
    assert reads and set(reads) <= oracle_reads
    outside = charts._gate_stencil(z + 1j * PROBE_STEP, seq.ambient.fd_outer_step)
    assert not {w.tobytes() for w in outside} & set(reads)


def test_a_sub_jump_before_an_ambient_jump_raises_first():
    """The inclusion j = 10 (w - p1) e1 vanishes at p1, the gate neighbor
    z - h + s of ring point 1, so the sub form drops rank there; the
    ambient G = diag(1, 1, |10 (w - p3)|^2) drops rank at p3, the gate
    neighbor of ring point 3.  The per-point ring solves A_E, then A_S, at
    each ring point, so it raises the sub's RankJump at ring point 1, and
    the stacked ring raises the same."""
    z = np.array([0.1 + 0.05j])
    h, s = PROBE_STEP, 1e-3
    p1, p3 = z - h + s, z - 1j * h + s
    poly = MatrixPolynomial(np.diag([1.0, 1.0, -10.0 * p3[0]]), c1=np.diag([0.0, 0.0, 10.0])[None])
    e1 = np.eye(3, 1, dtype=complex)
    seq = ExactSeqChart(
        from_factor(poly, 1, radius=0.9),
        lambda w: 10.0 * (w[0] - p1[0]) * e1,
        dj=lambda w: 10.0 * e1[None],
    )
    named = "rank 1 at %s but 0 at its stencil neighbor %s" % (charts._named(z - h), charts._named(p1))
    assert _first_ring_error(seq, z) == (RankJump, named)
    with pytest.raises(RankJump):
        chern_connection(seq.ambient, z - 1j * h)  # the later ambient jump
    at = seq.at(z)
    at.ambient.a, at.sub.a, at.quot.a
    with pytest.raises(RankJump) as stacked:
        at.probe("sigma")
    assert str(stacked.value) == named


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
        float(np.linalg.norm(at.q @ wirtinger_fd(fd_seq.j_at, z, a, h, True))) for a in range(seq.m)
    )
    sff = second_fundamental_form(fd_seq, z)
    assert sff.dbar_part_residual == worst / (1.0 + float(np.linalg.norm(at.sigma)))


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


@pytest.mark.parametrize("seed", JET_SEEDS)
def test_one_point_builds_one_ring_and_one_solve_per_field(seed, monkeypatch):
    """Identities, splitting, sigma and Codazzi at one point: one record,
    the base's, with one gate for each of its three solves, and its probe
    ring as arrays, whose ambient and sub connections are solved by one
    solve_rows call each.  The ambient kernel reads 4m + 1 rows for each
    base gate, one row for each of the base's sub d, sub dd and quotient
    jet reads, the 4m ring points once for the ring's forms, the
    4m (4m + 1) gate points of the ring once for both ring solves, and the
    4m ring points once more for the sub solve's dG.  The ambient's dG is
    read in one row for the base's ambient solve, sub d, sub dd and
    quotient jet each, and at the 4m ring points once for each of the two
    ring solves."""
    seq, z = sequence_instance(seed)
    seq.quot_field  # built ahead: its choice of route reads G at the chart centre
    n = 4 * seq.m
    fields = [seq.ambient, seq.sub_field, seq.quot_field]
    solves = _count_solves(monkeypatch)
    records, ring_solves = [], []
    init, solve_rows = sequences._SeqAt.__init__, sequences.solve_rows

    def counting_init(self, seq, w):
        records.append(w)
        init(self, seq, w)

    def counting_rows(field, zs, grams, forms):
        ring_solves.append((field, len(zs)))
        return solve_rows(field, zs, grams, forms)

    monkeypatch.setattr(sequences._SeqAt, "__init__", counting_init)
    monkeypatch.setattr(sequences, "solve_rows", counting_rows)
    reads, d_reads = _count_ambient_reads(seq, monkeypatch)
    demailly_residuals(seq, z)
    splitting_curvature_blocks(seq, z)
    second_fundamental_form(seq, z)
    rng = np.random.default_rng(seed)
    for a in range(seq.m):
        for b in range(seq.m):
            codazzi_sub(seq, z, a, b, rand_vec(rng, seq.k), rand_vec(rng, seq.k))
            rk = seq.r - seq.k
            codazzi_quot(seq, z, a, b, rand_vec(rng, rk), rand_vec(rng, rk))
    assert len(records) == 1
    assert solves == fields
    assert ring_solves == [(seq.ambient, n), (seq.sub_field, n)]
    base_one_row = ["sub d", "sub dd", "quotient jet"]
    base_reads = [n + 1] * len(fields) + [1] * len(base_one_row)
    ring_reads = [n, n * (n + 1), n]  # forms, gates, the sub solve's dG
    assert Counter(reads) == Counter(base_reads + ring_reads)
    assert Counter(d_reads) == Counter([1] * (1 + len(base_one_row)) + [n] * len(ring_solves))


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
        return quotient_form(LinearMap(seq.q_at(w)), seq.ambient.form_at(w)).gram

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
        np.stack([quotient_form(LinearMap(seq.q_at(w)), seq.ambient.form_at(w)).gram for w in zs])
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
    seq, z = sequence_instance(1)
    assert seq.m == 2
    calls = _count_solves(monkeypatch)
    rng = np.random.default_rng(5)
    for a in range(seq.m):
        for b in range(seq.m):
            codazzi_sub(seq, z, a, b, rand_vec(rng, seq.k), rand_vec(rng, seq.k))
            rk = seq.r - seq.k
            codazzi_quot(seq, z, a, b, rand_vec(rng, rk), rand_vec(rng, rk))
    # one ambient solve gives A_E and the curvature; sigma adds the sub solve
    assert calls.count(seq.ambient) == 1
    assert calls == [seq.ambient, seq.sub_field]


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
        ExactSeqChart(amb, lambda z: np.array([[1.0], [np.conj(z[0])]]))


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
    r_amb = curvature_tensor(seq.ambient, z).tensor
    r_sub = curvature_tensor(seq.sub_field, z).tensor
    r_quot = curvature_tensor(seq.quot_field, z).tensor
    rng = np.random.default_rng(2000 + seed)
    for a in range(seq.m):
        s = rand_vec(rng, seq.k)
        assert pair(r_sub, a, a, s, s).real <= pair(r_amb, a, a, at.j @ s, at.j @ s).real + 1e-8
        u = rand_vec(rng, seq.r - seq.k)
        assert pair(r_quot, a, a, u, u).real >= pair(r_amb, a, a, at.qdag @ u, at.qdag @ u).real - 1e-6


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


def test_sum_instances_cover_degenerate_kinds():
    kinds = {sum_instance(seed)[3] for seed in range(9)}
    assert kinds == {0, 1, 2}


@pytest.mark.parametrize("seed", [1, 2, 4, 5])
def test_sum_curvature_blind_to_kernel_gauge(seed):
    """Kernel-valued connection changes must not move the assembled sum."""
    b1, b2, z, kind = sum_instance(seed)
    assert kind != 0  # degenerate summand present, so the gauge move is real
    p1 = smooth_kernel_perturbation(b1, z, seed=seed)
    p2 = smooth_kernel_perturbation(b2, z, seed=seed + 7)
    assert np.linalg.norm(p1(z)) + np.linalg.norm(p2(z)) > 1e-3
    base = sum_curvature(b1, b2, z)
    moved = sum_curvature(b1, b2, z, perturb1=p1, perturb2=p2)
    err = np.linalg.norm(moved.tensor - base.tensor)
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

    solves = _count_solves(monkeypatch)
    b1, b2 = counted(random_pd_field(rng, m, 2)), counted(random_pd_field(rng, m, 2))
    sum_curvature(b1, b2, np.full(m, 0.1 + 0.05j))
    assert solves == [b1, b2]
    assert len(reads) == 2 * (4 * m + 1)


def test_sum_curvature_form_is_the_sum():
    b1, b2, z, _ = sum_instance(3)
    out = sum_curvature(b1, b2, z)
    assert np.allclose(out.form.gram, b1.gram(z) + b2.gram(z))
