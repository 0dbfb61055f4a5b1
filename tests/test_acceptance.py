"""One test per bundled acceptance criterion.

Each test runs the corresponding criterion at its stated tolerance and
runtime budget and fails with the criterion's own clause messages, so
``pytest -v`` reads as the acceptance report.
"""

import numpy as np

from hermitia import acceptance, models


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
    ricci, calls = models.ricci, []

    def third_is_nan(field, z):
        calls.append(z)
        out = ricci(field, z)
        return out * np.nan if len(calls) == 3 else out

    monkeypatch.setattr(models, "ricci", third_is_nan)
    assert np.isnan(models.einstein_residual(models.fubini_study_chart(1), 2.0))
    assert len(calls) == models.EINSTEIN_POINTS


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
