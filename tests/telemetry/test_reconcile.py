"""The acceptance gate: instrument totals must agree with the run's
independent ground truth (RunMetrics and the power ledger), and an
attached registry must not perturb the simulation at all."""

import pytest

from repro.harness.runner import CONSUMER_CORE
from repro.telemetry import (
    MetricsRegistry,
    reconcile_core_wakeups,
    reconcile_counters,
    reconcile_energy,
    render_checks,
)
from repro.trace import record_run

from tests.telemetry.conftest import SPEC


def test_counters_match_run_metrics(metered_run, metered_snapshot):
    checks = reconcile_counters(metered_snapshot, metered_run.stats)
    assert len(checks) == 6
    assert all(c.ok for c in checks), render_checks(checks)


@pytest.mark.parametrize("seed", [106, 2014])
def test_consumed_counter_matches_at_a_mid_batch_cut_off(seed):
    """The run cut-off can land inside a batch (seed 106 does, at 2 s
    with 5 consumers); items served so far must already be counted."""
    registry = MetricsRegistry()
    run = record_run(
        "PBPL", "webserver", duration_s=2.0, n_consumers=5, seed=seed,
        metrics=registry,
    )
    checks = reconcile_counters(registry.snapshot(), run.stats)
    assert all(c.ok for c in checks), render_checks(checks)


def test_joules_match_power_ledger(metered_run, metered_snapshot):
    checks = reconcile_energy(metered_snapshot, metered_run.ledger_total_j)
    assert all(c.ok for c in checks), render_checks(checks)
    (check,) = checks
    assert abs(check.metric - metered_run.ledger_total_j) < 1e-9


def test_core_wakeups_match_machine(metered_run, metered_snapshot):
    checks = reconcile_core_wakeups(
        metered_snapshot, CONSUMER_CORE, metered_run.consumer_core_wakeups
    )
    assert all(c.ok for c in checks), render_checks(checks)


def test_reconcile_flags_disagreement(metered_run, metered_snapshot):
    checks = reconcile_energy(
        metered_snapshot, metered_run.ledger_total_j + 1.0
    )
    assert not all(c.ok for c in checks)
    assert "FAIL" in render_checks(checks)


def test_registry_does_not_perturb_the_run(metered_run):
    """Zero-cost invariant: the same run without any registry produces
    identical stats and an identical energy ledger — instruments only
    observe, they never reschedule."""
    bare = record_run(
        SPEC["impl"],
        SPEC["scenario"],
        duration_s=SPEC["duration_s"],
        n_consumers=SPEC["n_consumers"],
        seed=SPEC["seed"],
    )
    for attr in (
        "produced",
        "consumed",
        "scheduled_wakeups",
        "overflow_wakeups",
        "overflows",
        "items_shed",
    ):
        assert getattr(bare.stats, attr) == getattr(metered_run.stats, attr)
    assert bare.ledger_total_j == metered_run.ledger_total_j
    assert bare.consumer_core_wakeups == metered_run.consumer_core_wakeups


def test_trace_bytes_unchanged_with_registry(metered_run):
    """The golden-trace gate stays empty: attaching a registry (without
    windows) leaves the recorded event stream byte-identical."""
    from repro.trace.stream import event_to_dict

    bare = record_run(
        SPEC["impl"],
        SPEC["scenario"],
        duration_s=SPEC["duration_s"],
        n_consumers=SPEC["n_consumers"],
        seed=SPEC["seed"],
    )
    a = [event_to_dict(e) for e in bare.tracer.events]
    b = [event_to_dict(e) for e in metered_run.tracer.events]
    assert a == b
