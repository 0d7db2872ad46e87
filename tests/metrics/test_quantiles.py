"""Tests for the exact, mergeable latency record."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.impls import PCConfig
from repro.metrics.quantiles import StreamingLatency
from tests.impls.conftest import Rig, regular_trace


def record(values):
    r = StreamingLatency()
    for x in values:
        r.observe(float(x))
    return r


def test_empty_estimator_returns_zero():
    r = StreamingLatency()
    assert (r.quantile(0.5), r.mean, r.maximum, r.samples) == (0.0, 0.0, 0.0, [])


def test_quantile_validation():
    with pytest.raises(ValueError):
        record([1.0, 2.0]).quantile(1.5)


def test_small_samples_use_exact_order_statistics():
    assert record([5.0, 1.0, 3.0]).quantile(0.5) == 3.0


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
def test_matches_numpy_on_uniform(q):
    data = np.random.default_rng(0).uniform(0, 100, 20_000)
    assert record(data).quantile(q) == np.percentile(data, q * 100)


@pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
def test_matches_numpy_on_lognormal(q):
    data = np.random.default_rng(1).lognormal(0.0, 1.0, 20_000)
    assert record(data).quantile(q) == np.percentile(data, q * 100)


def test_monotone_quantiles_on_same_stream():
    r = record(np.random.default_rng(2).normal(0, 1, 5_000))
    values = [r.quantile(q) for q in (0.25, 0.5, 0.75, 0.99)]
    assert values == sorted(values)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=400))
@settings(max_examples=150, deadline=None)
def test_estimate_always_within_observed_range(data):
    assert min(data) <= record(data).quantile(0.9) <= max(data)


def test_constant_stream_is_exact():
    assert record([7.0] * 1000).quantile(0.99) == 7.0


def test_streaming_latency_basic_counters():
    r = record([0.001, 0.002, 0.003])
    assert len(r.samples) == 3
    assert r.mean == pytest.approx(0.002)
    assert r.maximum == 0.003


def test_streaming_latency_quantiles_close_to_exact():
    data = np.random.default_rng(3).exponential(0.01, 30_000)
    assert record(data).quantile(0.99) == np.percentile(data, 99)


@given(
    parts=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=50),
        max_size=6,
    ),
    q=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=150, deadline=None)
def test_merged_quantile_equals_quantile_of_concatenation(parts, q):
    pooled = StreamingLatency.merged(record(p) for p in parts)
    flat = [x for p in parts for x in p]
    assert pooled.samples == flat
    assert pooled.quantile(q) == record(flat).quantile(q)


def test_merged_mean_and_max_match_running_sums_in_pair_order():
    """Pooled mean/max equal, bit for bit, per-pair running sums added
    in pair order over the pooled count."""
    rng = np.random.default_rng(4)
    parts = [[float(x) for x in rng.exponential(0.01, n)] for n in (7, 1000, 0, 333)]
    lat_sum, lat_n, lat_max = 0.0, 0, 0.0
    for p in parts:
        pair_sum = 0.0
        for x in p:
            pair_sum += x
        lat_sum += pair_sum
        lat_n += len(p)
        lat_max = max([lat_max] + p)
    pooled = StreamingLatency.merged(record(p) for p in parts)
    assert pooled.mean == lat_sum / lat_n
    assert pooled.maximum == lat_max


def test_pair_stats_percentile_is_exact():
    rig = Rig(seed=0)
    stats = rig.run_impl("BP", regular_trace(2000.0, 2.0), 2.0, PCConfig()).stats
    samples = stats.latency.samples
    assert len(samples) == stats.consumed > 0
    for q in (50, 75, 95, 99):
        assert stats.latency_percentile(q) == np.percentile(samples, q)
    assert stats.max_latency_s == max(samples)
