"""Property checks: every analytic jet agrees with the finite-difference
copy of its own field, at points drawn by hypothesis.

The bounds are those of ChartField's construction-time self-check:
first derivatives to 1e-6 and mixed second derivatives to 1e-5, each
relative to 1 + the norm of the finite-difference value.  Mixed second
derivatives are met against a Richardson extrapolation of the copy over
two outer steps, for the model fields as for the quotient jet of an
arbitrary sequence instance.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia import fields
from hermitia.charts import ChartField
from hermitia.instances import sequence_instance
from hermitia.models import grassmannian_chart, pluecker_monomials, pluecker_pullback, resolve_model

from oracles import grassmann_frame, logdet_jet, potential_frame, quotient_dq, quotient_jet

D_TOL = 1e-6
DD_TOL = 1e-5
# Largest relative distance of a drawn point from the chart center.
SPREAD = 0.4

FIELDS = {
    "gr:1:2": lambda: grassmannian_chart(1, 2).field,
    "gr:2:4": lambda: grassmannian_chart(2, 4).field,
    "gr:3:6": lambda: grassmannian_chart(3, 6).field,
    "fs:2": lambda: resolve_model("fs:2").field,
    "hirz:1 b1": lambda: resolve_model("hirz:1").fibration.b1_field,
    "hirz:1 b2": lambda: resolve_model("hirz:1").fibration.b2_field,
    "hirz:3 b1": lambda: resolve_model("hirz:3").fibration.b1_field,
    "pluecker:2:4": lambda: pluecker_pullback(2, 4),
}

# 2 m real coordinates in [-1, 1] for charts of dimension m <= 9
COORDS = st.lists(st.floats(-1.0, 1.0), min_size=18, max_size=18)
# the points of a stack of 1 to 6 rows
ROWS = st.lists(COORDS, min_size=1, max_size=6)


def _embedded(jet, m, sl):
    """(d, dd) of a factor field zero-padded into slots ``sl`` of an
    m-dimensional chart, from the factor's (d, dd) at z[sl]."""

    def at(z):
        d, dd = jet(z[sl])
        r = sl.stop - sl.start
        out_d = np.zeros((m, m, m), dtype=complex)
        out_dd = np.zeros((m, m, m, m), dtype=complex)
        out_d[sl, sl, sl] = d.reshape(r, r, r)
        out_dd[sl, sl, sl, sl] = dd.reshape(r, r, r, r)
        return out_d, out_dd

    return at


# The per-point jet of each field of FIELDS, from the oracle log-det jet of
# its frame at one point.
ORACLES = {
    "gr:1:2": lambda z: logdet_jet(grassmann_frame(1, 2), z),
    "gr:2:4": lambda z: logdet_jet(grassmann_frame(2, 4), z),
    "gr:3:6": lambda z: logdet_jet(grassmann_frame(3, 6), z),
    "fs:2": lambda z: logdet_jet(potential_frame(fields.fs_monomials(2)), z),
    "hirz:1 b1": lambda z: logdet_jet(potential_frame(fields.twisted_fiber_monomials(1)), z),
    "hirz:1 b2": _embedded(
        lambda z: logdet_jet(potential_frame(fields.fs_monomials(1)), z), 2, slice(0, 1)
    ),
    "hirz:3 b1": lambda z: logdet_jet(potential_frame(fields.twisted_fiber_monomials(3)), z),
    "pluecker:2:4": lambda z: logdet_jet(potential_frame(pluecker_monomials(2, 4)), z),
}


@lru_cache(maxsize=None)
def field_pair(name):
    field = FIELDS[name]()
    assert field.analytic and field.dd_fn is not None
    return field, field.finite_difference_copy()


def _point(field, coords):
    x = np.asarray(coords[: 2 * field.m]).reshape(2, field.m)
    return field.center + SPREAD * field.radius * (x[0] + 1j * x[1]) / np.sqrt(2.0)


def _stack_error(exact, fd):
    err = np.linalg.norm(exact - fd, axis=(-2, -1))
    return float(np.max(err / (1.0 + np.linalg.norm(fd, axis=(-2, -1)))))


def _richardson_dd(field, z):
    """A test-local oracle for d_a dbar_b G: the finite-difference copy's
    mixed derivatives at outer steps h and h/2 (h the field's
    ``fd_outer_step``), combined as (4 D(h/2) - D(h)) / 3.  The central
    stencil's error is even in h, so this cancels its h^2 term."""
    h = field.fd_outer_step
    reads = []
    for step in (h, h / 2.0):
        fd = ChartField(
            field.m,
            field.shape,
            field.stack_fn,
            center=field.center,
            radius=field.radius,
            fd_step=field.fd_step,
            fd_outer_step=step,
            self_check=False,
        )
        reads.append(fd.dd(z))
    return (4.0 * reads[1] - reads[0]) / 3.0


# The plain copy (outer step 1e-3) is itself the coarser side on hirz:3
# b1: 1.4e-5 from the jet at z = (0.57 + 0.57i, 0), on the zero section
# at a corner of the drawn region.  The Richardson oracle is within 1.4e-7
# of every model jet here, at up to 101 corner and sign points per field.
def _assert_jet_matches(field, fd, z):
    assert _stack_error(field.d(z), fd.d(z)) <= D_TOL
    assert _stack_error(field.dd(z), _richardson_dd(field, z)) <= DD_TOL


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=20, deadline=None)
@given(coords=COORDS)
def test_analytic_jet_matches_finite_differences(name, coords):
    field, fd = field_pair(name)
    _assert_jet_matches(field, fd, _point(field, coords))


# Any sequence_instance seed: m = 1 and 2, moving and constant inclusions.
# The plain finite-difference copy (outer step 1e-3) is itself the coarser
# side on some of them: 1.4e-5 from the jet on seed 2720 at its own point,
# 1.1e-4 on seed 451 at a corner of the region.  The Richardson oracle is
# within 4e-7 of the jet on seeds 0-2999 (own point, two corners and one
# random point each) and within 1.2e-6 at every corner of seed 451.
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), coords=COORDS)
def test_quotient_jet_matches_finite_differences(seed, coords):
    seq, _ = sequence_instance(seed)
    field = seq.quot_field
    assert field.analytic
    z = _point(field, coords)
    assert _stack_error(field.d(z), field.finite_difference_copy().d(z)) <= D_TOL
    assert _stack_error(field.dd(z), _richardson_dd(field, z)) <= DD_TOL


def _assert_rows_equal_the_oracle(field, zs, oracle):
    """d and dd of a stack, and the one-row reads of its first point, equal
    the per-point oracle at each row bit for bit."""
    d, dd = field.d_stack(zs), field.dd_stack(zs)
    for i, z in enumerate(zs):
        want_d, want_dd = oracle(z)
        assert np.array_equal(d[i], want_d)
        assert np.array_equal(dd[i], want_dd)
    want_d, want_dd = oracle(zs[0])
    assert np.array_equal(field.d(zs[0]), want_d)
    assert np.array_equal(field.dd(zs[0]), want_dd)


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=15, deadline=None)
@given(rows=ROWS)
def test_stacked_log_det_jet_equals_the_per_point_oracle(name, rows):
    field, _ = field_pair(name)
    zs = np.array([_point(field, coords) for coords in rows])
    _assert_rows_equal_the_oracle(field, zs, ORACLES[name])


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6), rows=ROWS)
def test_stacked_quotient_jet_equals_the_per_point_oracle(seed, rows):
    seq, _ = sequence_instance(seed)
    field = seq.quot_field
    assert field.analytic
    zs = np.array([_point(field, coords) for coords in rows])
    _assert_rows_equal_the_oracle(field, zs, lambda z: quotient_jet(seq, z))
    for z in zs:
        assert np.array_equal(seq.at(z).dq[0], quotient_dq(seq, z))


# seed, point coordinates (None: the instance's own point)
PLAIN_COPY_MISSES = ((2720, None), (451, [1.0, -1.0, -1.0, -1.0] + [0.0] * 4))


@pytest.mark.parametrize("seed, coords", PLAIN_COPY_MISSES)
def test_richardson_oracle_where_the_plain_copy_misses(seed, coords):
    seq, z = sequence_instance(seed)
    field = seq.quot_field
    z = z if coords is None else _point(field, coords)
    dd = field.dd(z)
    assert _stack_error(dd, field.finite_difference_copy().dd(z)) > DD_TOL
    assert _stack_error(dd, _richardson_dd(field, z)) <= DD_TOL


# Fields whose d and dd reads share one jet kept for the latest point.
SHARED_JET_FIELDS = {
    "gr:2:4": lambda: grassmannian_chart(2, 4).field,
    "fs:2": lambda: resolve_model("fs:2").field,
    "hirz:1 b1": lambda: resolve_model("hirz:1").fibration.b1_field,
    "quotient": lambda: sequence_instance(1)[0].quot_field,
}


@pytest.mark.parametrize("d_first", [True, False])
@pytest.mark.parametrize("name", sorted(SHARED_JET_FIELDS))
def test_shared_jet_never_serves_a_stale_point(name, d_first):
    """d and dd read at z1, z2 and z1 again, in either order, equal the
    reads of a freshly built field at each point."""
    build = SHARED_JET_FIELDS[name]
    field = build()
    z1 = _point(field, [0.3, -0.5, 0.2, 0.4, -0.1, 0.6, -0.3, 0.2])
    z2 = _point(field, [-0.4, 0.1, -0.6, 0.3, 0.5, -0.2, 0.1, -0.5])
    want = {}
    for i, z in enumerate((z1, z2)):
        want[i, "d"] = build().d(z)
        want[i, "dd"] = build().dd(z)
    order = ("d", "dd") if d_first else ("dd", "d")
    for i, z in ((0, z1), (1, z2), (0, z1)):
        for what in order:
            assert np.array_equal(getattr(field, what)(z), want[i, what])


def test_shared_jet_keeps_no_view_of_the_callers_point():
    """The Grassmann jet holds Z as a view of its point: a caller that
    writes into its point array after a read must not change the jet
    kept for that point."""
    z = np.array([0.2, -0.1j, 0.15 + 0.05j, -0.3])
    want = grassmannian_chart(2, 4).field.dd(z)
    field = grassmannian_chart(2, 4).field
    point = z.copy()
    field.d(point)
    point[:] = 0.5
    assert np.array_equal(field.dd(z), want)


@pytest.mark.parametrize("name", ["gr:2:4", "fs:2", "hirz:1 b1"])
def test_a_d_read_builds_no_second_order_products(name, monkeypatch):
    """A d read of a new stack, of one row or of four, builds only the
    first-order part of the log-det jet, once for the whole stack; the
    first dd read of that stack adds the second-order products once from
    it, and d and dd equal those of a freshly built field."""
    build = SHARED_JET_FIELDS[name]
    coords = [0.1, -0.2, 0.3, 0.25, -0.35, 0.15, 0.05, -0.4]
    first, second = fields._logdet_order1, fields._logdet_order2
    for rows in (1, 4):
        field = build()
        zs = np.array([_point(field, np.roll(coords, i)) for i in range(rows)])
        calls = []
        monkeypatch.setattr(fields, "_logdet_order1", lambda *a: calls.append("first") or first(*a))
        monkeypatch.setattr(fields, "_logdet_order2", lambda *a: calls.append("second") or second(*a))
        d = field.d_stack(zs)
        assert calls == ["first"]
        dd = field.dd_stack(zs)
        field.dd_stack(zs)
        field.d_stack(zs)
        assert calls == ["first", "second"]
        monkeypatch.undo()
        assert np.array_equal(d, build().d_stack(zs))
        assert np.array_equal(dd, build().dd_stack(zs))
