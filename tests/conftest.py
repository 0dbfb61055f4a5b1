import numpy as np
import pytest

from hermitia import charts


@pytest.fixture
def gate_points(monkeypatch):
    """The point of every constant-rank gate run in the test, as bytes:
    one gate per connection solve, whether it runs alone or in a stacked
    solve."""
    points = []
    gate, stack = charts._check_constant_rank, charts.solve_stack

    def counting(field, w):
        points.append(np.asarray(w, dtype=complex).tobytes())
        return gate(field, w)

    def counting_stack(records):
        points.extend(rec.point.tobytes() for rec in records)
        return stack(records)

    monkeypatch.setattr(charts, "_check_constant_rank", counting)
    monkeypatch.setattr(charts, "solve_stack", counting_stack)
    return points
