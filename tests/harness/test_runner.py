"""Tests for the experiment runner and figure harness (short runs)."""

import pytest

from repro.harness import (
    StandardParams,
    baseline_power_w,
    run_multi,
    run_multi_comparison,
)
from repro.harness.tables import render_comparison, render_series, render_table


@pytest.fixture(scope="module")
def params():
    # Tiny but non-degenerate: ~1s of simulated time, one replicate.
    return StandardParams(duration_s=1.0, replicates=1, seed=7)


def test_baseline_is_cheap_and_cached(params):
    a = baseline_power_w(params, 0)
    b = baseline_power_w(params, 0)
    assert a == b  # cache hit returns identical tuple
    measured, true = a
    assert 0 < true < 1.0  # background only: well under a busy watt


def test_single_pair_run_produces_metrics(params):
    m = run_multi("Sem", 1, params, 0)
    assert m.implementation == "Sem"
    assert m.produced > 0
    assert m.consumed > 0
    assert m.power_w > 0
    assert m.wakeups_per_s > 0
    assert m.usage_ms_per_s > 0


def test_single_pair_unknown_name(params):
    with pytest.raises(ValueError):
        run_multi("Nope", 1, params, 0)


def test_multi_run_produces_metrics(params):
    m = run_multi("BP", 3, params, 0)
    assert m.n_consumers == 3
    assert m.produced > 0
    assert m.overflow_wakeups > 0  # BP wakes on overflow by definition


def test_multi_pbpl_runs(params):
    m = run_multi("PBPL", 3, params, 0)
    assert m.scheduled_wakeups > 0
    assert m.average_buffer_size > 0


def test_multi_unknown_name(params):
    with pytest.raises(ValueError):
        run_multi("Nope", 3, params, 0)


def test_replicates_are_reproducible(params):
    a = run_multi("BP", 2, params, 0)
    b = run_multi("BP", 2, params, 0)
    assert a.power_w == b.power_w
    assert a.produced == b.produced


def test_different_replicates_differ(params):
    a = run_multi("BP", 2, params, 0)
    b = run_multi("BP", 2, params, 1)
    assert a.produced != b.produced or a.power_w != b.power_w


def test_buffer_size_override(params):
    m = run_multi("BP", 2, params, 0, buffer_size=50)
    assert m.buffer_size == 50


def test_extra_power_is_positive_for_all_impls(params):
    """Sanity check from the paper (§III-C1): every experiment draws
    more than the idle baseline."""
    for name in ("BW", "Mutex", "BP", "SPBP"):
        m = run_multi(name, 1, params, 0)
        assert m.power_w > 0, name


def test_bw_draws_most(params):
    """Paper sanity check: nothing beats two spinning cores; here, the
    busy-wait implementation bounds every blocking one."""
    bw = run_multi("BW", 1, params, 0)
    for name in ("Mutex", "Sem", "BP", "PBP", "SPBP"):
        assert run_multi(name, 1, params, 0).power_w < bw.power_w, name


def test_multi_comparison_renders(params):
    result = run_multi_comparison(params, n_consumers=2)
    text = result.render()
    assert "Figure 9" in text
    assert "PBPL" in text and "Mutex" in text
    assert result.summaries["PBPL"].replicates == params.replicates


# -- table rendering ------------------------------------------------------------


def test_render_table_alignment():
    text = render_table(["a", "bb"], [["1", "22"], ["333", "4"]])
    lines = text.splitlines()
    assert len({len(l) for l in lines}) == 1  # rectangular
    assert "| 333 | 4  |" in text


def test_render_table_with_title():
    text = render_table(["x"], [["1"]], title="T")
    assert text.startswith("T\n")


def test_render_series():
    text = render_series("fig", "n", [2, 5], [("power", [1.0, 2.0])])
    assert "fig" in text and "power" in text and "2" in text


def test_render_comparison():
    text = render_comparison("t", [("wakeups", "-39.5%", "-35.0%")])
    assert "paper" in text and "reproduced" in text
