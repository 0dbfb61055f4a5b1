"""One test per bundled acceptance criterion.

Each test runs the corresponding criterion at its stated tolerance and
runtime budget and fails with the criterion's own clause messages, so
``pytest -v`` reads as the acceptance report.
"""

import itertools

import numpy as np

from hermitia import acceptance, models, report, sequences


def _run(criterion):
    result = criterion()
    assert result.passed, "; ".join(result.failures)
    return result


def test_criterion_01_round_metric_calibration():
    _run(acceptance.round_metric_calibration)


def test_criterion_02_grassmannian_curvature_window():
    _run(acceptance.grassmannian_curvature_window)


def test_criterion_03_einstein_constants():
    _run(acceptance.einstein_constants)


def test_criterion_04_two_chart_constructions_agree():
    _run(acceptance.two_chart_constructions_agree)


def test_criterion_05_sub_quotient_curvature_suite():
    _run(acceptance.sub_quotient_curvature_suite)


def test_criterion_06_sum_of_forms_suite():
    _run(acceptance.sum_of_forms_suite)


def test_criterion_07_gauge_independence():
    _run(acceptance.gauge_independence_suite)


def test_criterion_08_derivative_identity_table():
    _run(acceptance.derivative_identity_table)


def test_criterion_09_quotient_limit_decay():
    _run(acceptance.quotient_limit_decay)


def test_criterion_10_fibration_positivity():
    _run(acceptance.fibration_positivity)


def test_criterion_11_form_calculus_properties():
    _run(acceptance.form_calculus_properties)


# ---------------------------------------------------------------------------
# the one gate rule: a NaN fails its clause


def test_a_nan_gauge_residual_fails_criterion_07(monkeypatch):
    monkeypatch.setattr(acceptance, "gauge_independence_residual", lambda *a, **k: float("nan"))
    result = acceptance.gauge_independence_suite()
    assert not result.passed
    assert np.isnan(result.details["worst_residual"])
    assert [f.split(":")[0] for f in result.failures] == ["worst_residual"]


def test_a_nan_einstein_residual_fails_criterion_03(monkeypatch):
    monkeypatch.setattr(acceptance, "einstein_residual", lambda *a, **k: float("nan"))
    result = acceptance.einstein_constants()
    assert not result.passed
    labels = ("fs:1", "fs:2", "gr:2:4")
    assert result.failures == ["%s: residual nan is not within 1e-06" % key for key in labels]
    assert all(np.isnan(result.details[key]) for key in labels)


def test_a_nan_at_the_third_ricci_point_makes_the_einstein_residual_nan(monkeypatch):
    ricci, calls = models._ricci, []

    def third_is_nan(curv):
        calls.append(curv.point)
        out = ricci(curv)
        return out * np.nan if len(calls) == 3 else out

    monkeypatch.setattr(models, "_ricci", third_is_nan)
    assert np.isnan(models.einstein_residual(models.fubini_study_chart(1), 2.0))
    assert len(calls) == models.EINSTEIN_POINTS


def test_worst_of_equals_the_numpy_reduction():
    """report.worst_of equals float(np.max(values, initial=0.0)) bit for
    bit, the sign of a zero and a NaN anywhere included, on every
    sequence of up to four of these values."""
    values = [0.0, -0.0, 1e-9, -3.0, np.inf, -np.inf, np.nan, np.float64(7.0)]
    for k in range(5):
        for seq in itertools.product(values, repeat=k):
            got, want = report.worst_of(iter(seq)), float(np.max(list(seq), initial=0.0))
            assert np.array_equal(got, want, equal_nan=True), seq
            assert np.signbit(got) == np.signbit(want), seq


def test_a_nan_identity_line_fails_criterion_08(monkeypatch):
    rel, calls = sequences._rel, []

    def first_is_nan(*args):
        calls.append(1)
        return float("nan") if len(calls) == 1 else rel(*args)

    monkeypatch.setattr(sequences, "_rel", first_is_nan)
    result = acceptance.derivative_identity_table()
    assert not result.passed
    assert np.isnan(result.details["inclusion"])
    assert result.failures == ["inclusion: residual nan is not within 1e-05"]


def test_the_decomposition_count_stops_at_the_draw_that_broke(monkeypatch):
    rank_of, calls = acceptance.rank_of, []

    def third_draw_wrong(sv, tol):
        calls.append(tol)
        return rank_of(sv, tol) + (len(calls) == 5)  # the first span rank of draw 3

    monkeypatch.setattr(acceptance, "rank_of", third_draw_wrong)
    result = acceptance.form_calculus_properties()
    assert not result.passed
    assert result.details["decomposition_checked"] == 3
    assert [f.split(":")[0] for f in result.failures] == ["decomposition_checked"]
