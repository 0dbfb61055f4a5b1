"""Seeded random instances for the oracle suites.

Everything here is deterministic in the seed, small (chart dimension at
most 2, fibers at most 4), and analytic, so the oracle comparisons in
the tests and the acceptance suite are reproducible and fast.  Ambient
metrics come from square well-conditioned matrix polynomials L(z) via
G = L^H L; degenerate summands use a tall-times-wide factorization that
keeps the rank constant while the range moves (flat fields would make
the curvature comparisons vacuous).
"""

import numpy as np

from .charts import sample_box
from .fields import MatrixPolynomial, from_factor
from .forms import HermitianForm, LinearMap, kernel
from .sequences import ExactSeqChart

INSTANCE_RADIUS = 0.9
# Size of the linear term of the random factor fields, relative to their
# well-conditioned constant term.
PD_CURVATURE_SCALE = 0.35
DEGENERATE_CURVATURE_SCALE = 0.3
# sum_instance redraws b2 as positive-definite when the lowest eigenvalue
# of b1 + b2 at the test point is at most this.
SUM_NUDGE_CUT = 1e-8


def _cnormal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def psd_form(rng, dim, rank=None):
    """X^H X with X of a chosen rank; rank=None means full rank."""
    r = dim if rank is None else rank
    x = _cnormal(rng, (r, dim))
    return HermitianForm(x.conj().T @ x)


def hermitian_form(rng, dim, rank=None):
    """Indefinite Hermitian form of prescribed rank."""
    r = dim if rank is None else rank
    q, _ = np.linalg.qr(_cnormal(rng, (dim, dim)))
    signs = rng.choice([-1.0, 1.0], size=r)
    mags = 0.2 + rng.random(r)
    w = np.concatenate([signs * mags, np.zeros(dim - r)])
    return HermitianForm(q @ np.diag(w) @ q.conj().T)


def adjointable_map(rng, bV, bW):
    """Random map sending Ker bV into Ker bW, so an adjoint exists."""
    kv = kernel(bV).basis
    kw = kernel(bW).basis
    f = _cnormal(rng, (bW.dim, bV.dim)) @ (np.eye(bV.dim) - kv @ kv.conj().T)
    if kv.shape[1] and kw.shape[1]:
        f = f + kw @ _cnormal(rng, (kw.shape[1], kv.shape[1])) @ kv.conj().T
    return LinearMap(f)


def balanced_limit_pair(rng, dim):
    """Positive pair (b1, b2) whose nonzero generalized eigenvalues of b2
    against b1 + b2 sit in [0.4, 0.95], so every error mode of the
    quotient family contracts within 20 percent of exp(-2) per lambda
    step of 2 from lambda = 2 on.
    """
    h0 = psd_form(rng, dim).gram + 0.1 * np.eye(dim)
    w, u = np.linalg.eigh(h0)
    root = u @ np.diag(np.sqrt(w)) @ u.conj().T
    n_zero = int(rng.integers(0, dim))
    y = np.concatenate([np.zeros(n_zero), rng.uniform(0.4, 0.95, dim - n_zero)])
    rng.shuffle(y)
    b2 = HermitianForm(root @ np.diag(y) @ root.conj().T)
    b1 = HermitianForm(root @ np.diag(1.0 - y) @ root.conj().T)
    return b1, b2


def random_pd_field(rng, m, r):
    """Positive-definite analytic Gram field, curved, safely conditioned."""
    c0 = 0.3 * _cnormal(rng, (r, r)) + 2.0 * np.eye(r)
    c1 = PD_CURVATURE_SCALE * _cnormal(rng, (m, r, r))
    return from_factor(MatrixPolynomial(c0, c1=c1), m, radius=INSTANCE_RADIUS)


def random_degenerate_field(rng, m, r, rank):
    """Constant-rank analytic field with a curved range, rank < r."""
    d0 = 0.3 * _cnormal(rng, (r, rank)) + 1.5 * np.eye(r, rank)
    d1 = DEGENERATE_CURVATURE_SCALE * _cnormal(rng, (m, r, rank))
    k = _cnormal(rng, (rank, r)) + np.eye(rank, r)
    poly = MatrixPolynomial(d0 @ k, c1=np.stack([d1[a] @ k for a in range(m)]))
    return from_factor(poly, m, radius=INSTANCE_RADIUS)


def random_inclusion(rng, r, k, m, constant=False):
    """Holomorphic inclusion data (j, dj) with a well-conditioned base
    point: a constant matrix, or j = j0 + z . j1 and its derivatives as
    kernels of a (B, m) stack of points."""
    j0 = np.eye(r, k, dtype=complex) + 0.25 * _cnormal(rng, (r, k))
    if constant:
        return j0, None
    j1 = 0.2 * _cnormal(rng, (m, r, k))
    poly = MatrixPolynomial(j0, c1=j1)
    return poly.value, lambda zs: np.repeat(j1[None], len(zs), axis=0)


def sequence_instance(seed):
    """One seeded subbundle instance: (chart, test point)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 17]))
    m = int(rng.integers(1, 3))
    r = int(rng.integers(2, 5))
    k = int(rng.integers(1, min(2, r - 1) + 1))
    ambient = random_pd_field(rng, m, r)
    j, dj = random_inclusion(rng, r, k, m, constant=bool(rng.random() < 0.3))
    seq = ExactSeqChart(ambient, j, dj=dj, name="inst%d" % seed)
    z = sample_box(rng, m, 0.2)
    return seq, z


def sum_instance(seed):
    """One seeded pair of summands: (b1, b2, test point, kinds)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 29]))
    m = int(rng.integers(1, 3))
    r = int(rng.integers(2, 5))
    kind = seed % 3  # rotate through pd+pd, pd+degenerate, degenerate+degenerate
    if kind == 0:
        b1 = random_pd_field(rng, m, r)
        b2 = random_pd_field(rng, m, r)
    elif kind == 1:
        b1 = random_pd_field(rng, m, r)
        b2 = random_degenerate_field(rng, m, r, rank=max(1, r - 1))
    else:
        r = max(r, 3)
        b1 = random_degenerate_field(rng, m, r, rank=r - 1)
        b2 = random_degenerate_field(rng, m, r, rank=r - 1)
    z = sample_box(rng, m, 0.15)
    h = b1.gram(z) + b2.gram(z)
    if np.linalg.eigvalsh(h)[0] <= SUM_NUDGE_CUT:
        # complementary-kernel overlap left the sum degenerate; nudge with
        # a second draw that keeps the instance deterministic in the seed
        b2 = random_pd_field(rng, m, r)
    return b1, b2, z, kind


def gauge_instance(seed):
    """A degenerate constant-rank field with a point for gauge tests."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))
    m = int(rng.integers(1, 3))
    r = int(rng.integers(3, 5))
    field = random_degenerate_field(rng, m, r, rank=r - 1)
    z = sample_box(rng, m, 0.2)
    return field, z
