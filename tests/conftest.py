import pytest

from hermitia import charts


@pytest.fixture
def gate_points(monkeypatch):
    """The point of every constant-rank gate run in the test, as bytes:
    one gate per connection solve, counted at the one solve entry point
    ``charts.solve_rows``, which every ``charts.FieldRows`` calls, whether
    the solve is a record's one-row solve or a stacked one."""
    points = []
    solve_rows = charts.solve_rows

    def counting(field, zs, grams, forms):
        points.extend(z.tobytes() for z in zs)
        return solve_rows(field, zs, grams, forms)

    monkeypatch.setattr(charts, "solve_rows", counting)
    return points
