"""Property checks: every analytic jet agrees with the finite-difference
copy of its own field, at points drawn by hypothesis.

The bounds are those of ChartField's construction-time self-check:
first derivatives to 1e-6 and mixed second derivatives to 1e-5, each
relative to 1 + the norm of the finite-difference value.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermitia.instances import sequence_instance
from hermitia.models import grassmannian_chart, pluecker_pullback, resolve_model

D_TOL = 1e-6
DD_TOL = 1e-5
# Largest relative distance of a drawn point from the chart center.
SPREAD = 0.4

FIELDS = {
    "gr:1:2": lambda: grassmannian_chart(1, 2).field,
    "gr:2:4": lambda: grassmannian_chart(2, 4).field,
    "fs:2": lambda: resolve_model("fs:2").field,
    "hirz:1 b1": lambda: resolve_model("hirz:1").fibration.b1_field,
    "hirz:1 b2": lambda: resolve_model("hirz:1").fibration.b2_field,
    "pluecker:2:4": lambda: pluecker_pullback(2, 4),
}

# 2 m real coordinates in [-1, 1] for charts of dimension m <= 4
COORDS = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)


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


def _assert_jet_matches(field, fd, z):
    assert _stack_error(field.d(z), fd.d(z)) <= D_TOL
    assert _stack_error(field.dd(z), fd.dd(z)) <= DD_TOL


@pytest.mark.parametrize("name", sorted(FIELDS))
@settings(max_examples=20, deadline=None)
@given(coords=COORDS)
def test_analytic_jet_matches_finite_differences(name, coords):
    field, fd = field_pair(name)
    _assert_jet_matches(field, fd, _point(field, coords))


# The sequence_instance seeds of test_sequences.JET_SEEDS: m = 1 and 2, moving
# and constant inclusions.  Across other seeds the finite-difference copy is
# itself the coarser side: on seed 2720 at its own point it is 1.4e-5 from
# the jet, and that gap falls as the square of the outer step.
QUOTIENT_SEEDS = (0, 1, 5, 17)


@settings(max_examples=20, deadline=None)
@given(seed=st.sampled_from(QUOTIENT_SEEDS), coords=COORDS)
def test_quotient_jet_matches_finite_differences(seed, coords):
    seq, _ = sequence_instance(seed)
    field = seq.quot_field
    assert field.analytic
    _assert_jet_matches(field, field.finite_difference_copy(), _point(field, coords))
