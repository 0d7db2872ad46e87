"""Unit tests for the statistics toolkit."""

import math
import sys
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    confidence_interval,
    pearson,
    percent_change,
    wakeup_power_significance,
)
from repro.metrics import stats as stats_mod


@pytest.fixture
def no_scipy(monkeypatch):
    """Run as if scipy were not installed (the import raises)."""
    monkeypatch.setitem(sys.modules, "scipy", None)
    stats_mod._scipy_stats.cache_clear()
    yield
    stats_mod._scipy_stats.cache_clear()


# -- confidence intervals ------------------------------------------------------


def test_ci_of_constant_data_is_tight():
    est = confidence_interval([5.0, 5.0, 5.0])
    assert est.mean == 5.0
    assert est.half_width == 0.0


def test_ci_single_value_has_zero_width():
    est = confidence_interval([3.0])
    assert est.mean == 3.0
    assert est.half_width == 0.0
    assert est.n == 1


def test_ci_contains_true_mean_for_gaussian_data():
    # n=5 coverage needs the exact t quantile; the no-scipy normal
    # fallback is only claimed for df >= 30 (tested below).
    pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(200):
        sample = rng.normal(10.0, 2.0, size=5)
        est = confidence_interval(sample, level=0.95)
        if est.low <= 10.0 <= est.high:
            hits += 1
    assert hits >= 175  # ≈95% coverage, generous slack


def test_ci_width_shrinks_with_n():
    rng = np.random.default_rng(1)
    small = confidence_interval(rng.normal(0, 1, 4))
    large = confidence_interval(rng.normal(0, 1, 100))
    assert large.half_width < small.half_width


def test_ci_validation():
    with pytest.raises(ValueError):
        confidence_interval([])
    with pytest.raises(ValueError):
        confidence_interval([1.0], level=1.5)


def test_estimate_str():
    assert "±" in str(confidence_interval([1.0, 2.0, 3.0]))


# -- pearson ------------------------------------------------------------------


def test_pearson_perfect_positive():
    assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)


def test_pearson_perfect_negative():
    assert pearson([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)


def test_pearson_zero_variance_returns_zero():
    assert pearson([1, 1, 1], [1, 2, 3]) == 0.0


def test_pearson_validation():
    with pytest.raises(ValueError):
        pearson([1], [2])
    with pytest.raises(ValueError):
        pearson([1, 2], [1, 2, 3])


@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=-1e6, max_value=1e6),
            st.floats(min_value=-1e6, max_value=1e6),
        ),
        min_size=2,
        max_size=40,
    )
)
@settings(max_examples=200, deadline=None)
def test_pearson_bounded(data):
    xs, ys = zip(*data)
    assert -1.0 - 1e-9 <= pearson(xs, ys) <= 1.0 + 1e-9


# -- significance test ---------------------------------------------------------


def test_strong_linear_effect_is_significant():
    rng = np.random.default_rng(2)
    wakeups = rng.uniform(100, 1000, 30)
    power = 0.001 * wakeups + rng.normal(0, 0.01, 30)
    test = wakeup_power_significance(wakeups, power)
    assert test.significant(0.99)
    assert test.slope > 0


def test_no_effect_is_not_significant():
    rng = np.random.default_rng(3)
    wakeups = rng.uniform(100, 1000, 30)
    power = rng.normal(1.0, 0.1, 30)  # independent of wakeups
    test = wakeup_power_significance(wakeups, power)
    assert not test.significant(0.99)


def test_perfect_correlation_p_essentially_zero():
    test = wakeup_power_significance([1, 2, 3, 4], [2, 4, 6, 8])
    assert test.p_value < 1e-6  # float round-off may keep |r| just below 1


def test_significance_validation():
    with pytest.raises(ValueError):
        wakeup_power_significance([1, 2], [1, 2])


# -- scipy-exact values and the no-scipy fallback -------------------------------


SAMPLE = [4.1, 3.7, 5.2, 4.8, 4.4, 3.9]


@pytest.mark.parametrize("level", [0.8, 0.95, 0.99])
def test_ci_half_width_is_scipy_t_quantile_times_sem(level):
    t = pytest.importorskip("scipy.stats").t
    arr = np.asarray(SAMPLE)
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    expected = float(t.ppf(0.5 + level / 2, arr.size - 1)) * sem
    assert confidence_interval(SAMPLE, level).half_width == expected


def test_slope_p_value_is_scipy_t_survival():
    t = pytest.importorskip("scipy.stats").t
    rng = np.random.default_rng(4)
    wakeups = rng.uniform(100, 1000, 12)
    power = 0.0005 * wakeups + rng.normal(0, 0.2, 12)
    r = pearson(wakeups, power)
    t_stat = r * math.sqrt((12 - 2) / (1 - r * r))
    expected = float(2 * t.sf(abs(t_stat), 12 - 2))
    assert wakeup_power_significance(wakeups, power).p_value == expected


@pytest.mark.parametrize(
    "level, z", [(0.8, 1.2816), (0.9, 1.6449), (0.95, 1.9600), (0.99, 2.5758)]
)
def test_fallback_quantile_is_the_normal_quantile(no_scipy, level, z):
    assert stats_mod._scipy_stats() is None
    quantile = stats_mod._t_quantile(level, df=5)
    assert quantile == NormalDist().inv_cdf(0.5 + level / 2)
    assert quantile == pytest.approx(z, abs=1e-4)
    arr = np.asarray(SAMPLE)
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    assert confidence_interval(SAMPLE, level).half_width == quantile * sem


def test_fallback_ci_covers_true_mean_for_large_samples(no_scipy):
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(200):
        est = confidence_interval(rng.normal(10.0, 2.0, size=40), level=0.95)
        if est.low <= 10.0 <= est.high:
            hits += 1
    assert hits >= 175


def test_fallback_slope_p_value_is_the_normal_tail(no_scipy):
    wakeups = [1.0, 2.0, 3.0, 4.0, 5.0]
    power = [1.1, 1.9, 3.2, 3.8, 5.3]
    test = wakeup_power_significance(wakeups, power)
    r = pearson(wakeups, power)
    t_stat = r * math.sqrt(3 / (1 - r * r))
    assert test.p_value == math.erfc(abs(t_stat) / math.sqrt(2))
    assert test.significant(0.99)


# -- percent change --------------------------------------------------------------


def test_percent_change_reduction():
    assert percent_change(100.0, 80.0) == pytest.approx(-20.0)


def test_percent_change_increase():
    assert percent_change(50.0, 75.0) == pytest.approx(50.0)


def test_percent_change_zero_baseline():
    with pytest.raises(ValueError):
        percent_change(0.0, 1.0)
