"""The three seeded workloads and their output checks.

Each workload function takes the benchmark seed and returns a :class:`Workload`: a
list of items (one public hermitia call each, on inputs generated from
the seed), a short warm-up list, and how each item is checked.  The
runner (``run.py``) replays the same items in every round, so counts and margins
repeat exactly for fixed code and seed; a workload with ``refill`` draws
the next round's items from its seeded stream instead, with the same
class mix, so its counts per round still repeat exactly.

Every tolerance below is one the acceptance suite or the test suite
already uses for the same quantity.
"""

from dataclasses import dataclass, field

import numpy as np

from hermitia import charts, fibration, fields, instances, models, sequences

# gr-scan: the criterion-02 configuration of the (2, 4) Grassmannian chart.
GR_K, GR_N = 2, 4
GR_REGION = 0.7
GR_SAMPLES = 2000
GR_DIRECTIONS = 20
GR_STEPS = 200
GR_MAX_TOL = 0.02
GR_MIN_TOL = 0.025

# seq-identities: three fresh instances per (m, r, k) class of chart
# dimension 1 in every round.
SEQ_CLASSES = ((1, 2, 1), (1, 3, 1), (1, 3, 2), (1, 4, 1), (1, 4, 2))
SEQ_COPIES = 3
IDENTITY_TOL = 1e-5
CODAZZI_TOL = 1e-4

# degenerate-sums
FIBRATION_MODELS = ("hirz:1", "prod:fs1:fs1")
# find_lambda0 runs in the criterion-10 configuration, the only one with a
# reference: on hirz:1 the sampled minimum of H at lambda = 0 sits near the
# 1e-3 margin, so another scan seed can return 0.5 instead.
CRITERION_10_LAMBDA0 = {"hirz:1": 0.0, "prod:fs1:fs1": 0.0}
CRITERION_10_SCAN_SEED = 0
LAMBDA_SCAN_SAMPLES = 200
LAMBDA_GRID = (0.0, 2.0, 4.0, 6.0)
FIBRATION_REGION = 0.7
SUM_CLASSES = tuple(
    (kind, m, r)
    for kind in (0, 1, 2)
    for m in (1, 2)
    for r in ((3, 4) if kind == 2 else (2, 3, 4))
)
SUM_COPIES = 2
GAUGE_CLASSES = ((1, 3), (1, 4), (2, 3), (2, 4))
SUM_TOL = 1e-4
GAUGE_TOL = 1e-6
PROJECTION_TOL = 1e-8

MAX_DRAWS = 10000


@dataclass
class Item:
    """One timed program call and how to check what it returns.

    ``check(result, reference)`` returns (label, residual, tolerance)
    triples; the item passes when every residual is within tolerance.  A
    tolerance of None marks a residual that is reported, not gated.
    ``reference()`` is computed once for each round's items, outside the
    timed region.
    ``points`` is how many chart points the call completes; with
    ``clock`` set, per-point latency is read from that binding instead of
    the whole call.
    """

    label: str
    call: object
    check: object
    reference: object = None
    points: int = 1
    clock: tuple = None
    tally: object = None


@dataclass
class Workload:
    """``tail_percentile`` is the highest of p90, p95, p99 that leaves at
    least ten latency samples beyond it in a 30 s run of the workload; it
    is fixed per workload so that the tail means the same on every run."""

    name: str
    items: list
    tail_percentile: float
    warm: list = field(default_factory=list)
    refill: object = None


def _stream(seed, tag):
    """Endless seeded stream of instance seeds for one workload."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), tag]))
    while True:
        yield int(rng.integers(0, 2**31))


def _stratified(stream, classes, make, classify, copies=1):
    """The next ``copies`` instances of each class in a seeded stream, in class order."""
    found = {c: [] for c in classes}
    for _ in range(MAX_DRAWS):
        s = next(stream)
        inst = make(s)
        bucket = found.get(classify(inst))
        if bucket is not None and len(bucket) < copies:
            bucket.append((s, inst))
            if all(len(b) == copies for b in found.values()):
                return [pair for c in classes for pair in found[c]]
    raise RuntimeError("seeded stream did not cover the instance classes")


def _cvec(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _pair(tensor, a, b, s, t):
    return complex(np.einsum("st,s,t->", tensor[a, b], s, np.conj(t)))


# ---------------------------------------------------------------------------
# gr-scan


def check_scan(result, reference):
    lower, upper = reference
    return [
        ("min_H", abs(result.min_H - lower), GR_MIN_TOL),
        ("max_H", abs(result.max_H - upper), GR_MAX_TOL),
    ]


def gr_scan(seed, quick=False):
    model = models.grassmannian_chart(GR_K, GR_N)
    scan_seed = next(_stream(seed, 2))
    samples = 3 * GR_DIRECTIONS if quick else GR_SAMPLES
    # true pinching of Gr(k, n): H in [2 / min(k, n - k), 2]
    reference = (2.0 / min(GR_K, GR_N - GR_K), 2.0)

    def scan(samples=samples, steps=GR_STEPS):
        return models.hsc_extremes(
            model.field,
            region=GR_REGION,
            samples=samples,
            optimizer_steps=steps,
            seed=scan_seed,
            directions_per_point=GR_DIRECTIONS,
            threads=None,
        )

    item = Item(
        "hsc_extremes",
        scan,
        check_scan,
        reference=lambda: reference,
        points=samples // GR_DIRECTIONS,
        clock=(models, "curvature_tensor"),
    )
    warm = [lambda: scan(samples=GR_DIRECTIONS, steps=2)]
    return Workload("gr-scan", [item], 95.0, warm)


# ---------------------------------------------------------------------------
# seq-identities


@dataclass
class SeqOutput:
    identities: dict
    reassembly: float
    sff_dbar: float
    codazzi_sub: list
    codazzi_quot: list


def check_seq(out, reference):
    sub_ref, quot_ref = reference
    rows = [("identity." + k, v, IDENTITY_TOL) for k, v in sorted(out.identities.items())]
    for got, want in zip(out.codazzi_sub, sub_ref):
        rows.append(("codazzi_sub", abs(got - want) / (1.0 + abs(want)), CODAZZI_TOL))
    for got, want in zip(out.codazzi_quot, quot_ref):
        rows.append(("codazzi_quot", abs(got - want) / (1.0 + abs(want)), CODAZZI_TOL))
    # No suite gates these on random instances; the program gates the
    # (0,1)-part of sigma itself, and reassembly reaches a few 1e-4 on some.
    rows.append(("reassembly", out.reassembly, None))
    rows.append(("sff_dbar", out.sff_dbar, None))
    return rows


def _seq_item(seed, inst_seed, seq, z):
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), inst_seed, 5]))
    pairs = [(a, b) for a in range(seq.m) for b in range(seq.m)]
    sub_vecs = [(_cvec(rng, seq.k), _cvec(rng, seq.k)) for _ in pairs]
    quot_vecs = [(_cvec(rng, seq.r - seq.k), _cvec(rng, seq.r - seq.k)) for _ in pairs]

    def call():
        identities = sequences.demailly_residuals(seq, z)
        blocks = sequences.splitting_curvature_blocks(seq, z)
        sff = sequences.second_fundamental_form(seq, z)
        return SeqOutput(
            identities=identities,
            reassembly=blocks.reassembly_residual,
            sff_dbar=sff.dbar_part_residual,
            codazzi_sub=[
                sequences.codazzi_sub(seq, z, a, b, s, t) for (a, b), (s, t) in zip(pairs, sub_vecs)
            ],
            codazzi_quot=[
                sequences.codazzi_quot(seq, z, a, b, u, v) for (a, b), (u, v) in zip(pairs, quot_vecs)
            ],
        )

    def reference():
        # intrinsic curvature of the induced sub and quotient fields
        r_s = charts.curvature_tensor(seq.sub_field, z).tensor
        r_q = charts.curvature_tensor(seq.quot_field, z).tensor
        return (
            [_pair(r_s, a, b, s, t) for (a, b), (s, t) in zip(pairs, sub_vecs)],
            [_pair(r_q, a, b, u, v) for (a, b), (u, v) in zip(pairs, quot_vecs)],
        )

    return Item(
        "sequence %d" % inst_seed,
        call,
        check_seq,
        reference=reference,
        tally=lambda out: {"sequence.instances": 1},
    )


def seq_identities(seed, quick=False):
    """Instance costs differ within a class, so rounds draw fresh instances:
    the latency tail then ranges over many instances, not one round's few."""
    stream = _stream(seed, 3)

    def draw_round():
        chosen = _stratified(
            stream,
            SEQ_CLASSES[:1] if quick else SEQ_CLASSES,
            instances.sequence_instance,
            lambda inst: (inst[0].m, inst[0].r, inst[0].k),
            copies=1 if quick else SEQ_COPIES,
        )
        return [_seq_item(seed, s, seq, z) for s, (seq, z) in chosen]

    items = draw_round()
    return Workload("seq-identities", items, 90.0, warm=[items[0].call], refill=draw_round)


# ---------------------------------------------------------------------------
# degenerate-sums


def check_lambda0(result, reference):
    found = result.lambda0 is not None and result.lambda0 == reference
    return [("lambda0", 0.0 if found else 1.0, 0.0)]


def check_decomposition(result, expect_applicable):
    rows = [("applicable", 0.0 if result.applicable == expect_applicable else 1.0, 0.0)]
    if result.applicable:
        rows.append(("decomposition", result.residual, SUM_TOL))
    return rows


def check_limit(result, reference):
    return [
        ("projection", result.projection_residual, PROJECTION_TOL),
        ("semipositive", 0.0 if result.semipositive else 1.0, 0.0),
    ]


def check_sum(result, reference):
    err = np.linalg.norm(result.tensor - reference) / (1.0 + np.linalg.norm(reference))
    return [("sum", float(err), SUM_TOL)]


def check_gauge(result, reference):
    return [("gauge", result, GAUGE_TOL)]


def _fibration_points(seed, index, model_id, count):
    """Seeded points of the scan region; on hirz the first lies on the zero section.

    Off the zero section the fiber coordinate keeps |w| >= 0.2, so the
    rank of b1 is constant across every finite-difference stencil.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7, index]))
    out = []
    for i in range(count):
        zb = FIBRATION_REGION * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        zw = rng.uniform(0.2, FIBRATION_REGION) * np.exp(2j * np.pi * rng.random())
        on_zero_section = model_id.startswith("hirz") and i == 0
        out.append((np.array([zb, 0.0 if on_zero_section else zw]), not on_zero_section))
    return out


def degenerate_sums(seed, quick=False):
    items = []
    for index, model_id in enumerate(FIBRATION_MODELS):
        model = models.resolve_model(model_id).fibration

        def scan(model=model):
            return fibration.find_lambda0(
                model,
                sphere_samples=LAMBDA_SCAN_SAMPLES,
                seed=CRITERION_10_SCAN_SEED,
                threads=None,
            )

        lam0 = CRITERION_10_LAMBDA0[model_id]
        items.append(Item("find_lambda0 " + model_id, scan, check_lambda0, reference=lambda v=lam0: v))

        for z, applicable in _fibration_points(seed, index, model_id, 1 if quick else 2):
            for lam in LAMBDA_GRID[:2] if quick else LAMBDA_GRID:
                items.append(
                    Item(
                        "r_lambda %s %g" % (model_id, lam),
                        lambda model=model, lam=lam, z=z: fibration.r_lambda_decomposed(model, lam, z),
                        check_decomposition,
                        reference=lambda v=applicable: v,
                        tally=lambda r: {"r_lambda.applicable": int(r.applicable), "r_lambda.attempted": 1},
                    )
                )
            items.append(
                Item(
                    "q_lambda " + model_id,
                    lambda model=model, z=z: fibration.q_lambda_limit(model, z),
                    check_limit,
                )
            )

    chosen = _stratified(
        _stream(seed, 13),
        SUM_CLASSES[:3] if quick else SUM_CLASSES,
        instances.sum_instance,
        lambda inst: (inst[3], inst[0].m, inst[0].shape),
        copies=1 if quick else SUM_COPIES,
    )
    for s, (b1, b2, z, kind) in chosen:
        items.append(
            Item(
                "sum %d" % s,
                lambda b1=b1, b2=b2, z=z: sequences.sum_curvature(b1, b2, z),
                check_sum,
                reference=lambda b1=b1, b2=b2, z=z: charts.curvature_tensor(
                    fields.sum_field(b1, b2), z
                ).tensor,
            )
        )

    chosen = _stratified(
        _stream(seed, 17),
        GAUGE_CLASSES[:1] if quick else GAUGE_CLASSES,
        instances.gauge_instance,
        lambda inst: (inst[0].m, inst[0].shape),
    )
    for s, (gfield, z) in chosen:
        items.append(
            Item(
                "gauge %d" % s,
                lambda f=gfield, z=z, s=s: charts.gauge_independence_residual(f, z, seed=s),
                check_gauge,
            )
        )

    first_of_kind = {}
    for item in items:
        first_of_kind.setdefault(item.label.split()[0], item.call)
    return Workload("degenerate-sums", items, 99.0, list(first_of_kind.values()))


BY_NAME = {
    "gr-scan": gr_scan,
    "seq-identities": seq_identities,
    "degenerate-sums": degenerate_sums,
}
