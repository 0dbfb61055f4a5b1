import numpy as np
import pytest

from hermitia import charts


@pytest.fixture
def gate_points(monkeypatch):
    """The point of every constant-rank gate run in the test, as bytes:
    one gate per connection solve."""
    points = []
    gate = charts._check_constant_rank

    def counting(field, w):
        points.append(np.asarray(w, dtype=complex).tobytes())
        return gate(field, w)

    monkeypatch.setattr(charts, "_check_constant_rank", counting)
    return points
