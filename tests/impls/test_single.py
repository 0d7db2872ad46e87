"""Behavioural tests for the seven single-pair implementations."""

import pytest

from repro.impls import PCConfig, SINGLE_IMPLEMENTATIONS
from tests.impls.conftest import Rig, regular_trace

ALL_IMPLS = sorted(SINGLE_IMPLEMENTATIONS)

# A gentle workload every implementation can fully absorb: 200 items/s
# for 2 s, 2 µs service time.
RATE, DURATION = 200.0, 2.0


def run(name, config=None, rate=RATE, duration=DURATION, seed=0, timer_kwargs=None):
    rig = Rig(seed=seed, timer_kwargs=timer_kwargs)
    impl = rig.run_impl(name, regular_trace(rate, duration), duration, config)
    return rig, impl


# -- universal correctness properties ---------------------------------------------


@pytest.mark.parametrize("name", ALL_IMPLS)
def test_all_items_produced(name):
    _, impl = run(name)
    assert impl.stats.produced == impl.trace.n_items


@pytest.mark.parametrize("name", ALL_IMPLS)
def test_consumed_at_most_produced(name):
    _, impl = run(name)
    assert impl.stats.consumed <= impl.stats.produced


@pytest.mark.parametrize("name", ALL_IMPLS)
def test_unconsumed_items_still_buffered(name):
    """Conservation: produced = consumed + buffered + in-flight."""
    _, impl = run(name)
    assert impl.stats.produced == (
        impl.stats.consumed + len(impl.buffer) + impl.in_flight
    )


@pytest.mark.parametrize("name", ["BW", "Yield", "Mutex", "Sem"])
def test_continuous_impls_consume_everything(name):
    """The per-item implementations drain continuously, so nothing is
    left at the horizon under this gentle load."""
    _, impl = run(name)
    assert impl.stats.consumed == impl.stats.produced


@pytest.mark.parametrize("name", ["PBP", "SPBP"])
def test_periodic_impls_consume_all_but_final_period(name):
    """Periodic batchers may hold at most the final period's arrivals."""
    _, impl = run(name)
    max_tail = int(RATE * PCConfig().batch_period_s * 2) + 2
    assert impl.stats.consumed >= impl.stats.produced - max_tail


def test_bp_waits_for_full_buffers():
    _, impl = run("BP", PCConfig(buffer_size=25))
    # 399 items arrive (regular grid, open interval); 15 full batches of
    # 25 get drained and 24 items remain buffered at the horizon.
    assert impl.stats.produced == 399
    assert impl.stats.invocations == 15
    assert impl.stats.consumed == 375
    assert impl.stats.overflow_wakeups == impl.stats.invocations


@pytest.mark.parametrize("name", ALL_IMPLS)
def test_latencies_recorded(name):
    _, impl = run(name)
    if impl.stats.consumed:
        assert impl.stats.mean_latency_s > 0
        assert impl.stats.max_latency_s >= impl.stats.mean_latency_s
        assert len(impl.stats.latency.samples) == impl.stats.consumed


def test_fifo_order_preserved():
    """Items must be consumed in production order (check via latencies:
    with regular arrivals and immediate consumption, latency is flat)."""
    _, impl = run("Sem")
    assert impl.stats.consumed == impl.stats.produced


# -- per-implementation signatures (the §III power-profile mechanics) ----------


def test_bw_single_wakeup_full_usage():
    rig, impl = run("BW")
    report = rig.powertop.report()
    row = report.row("consumer")
    assert impl.stats.invocations == 1
    assert row.wakeups_per_s == 0.0  # never re-woken by the scheduler
    assert row.usage_ms_per_s == pytest.approx(1000.0, rel=0.02)
    assert rig.machine.core(0).total_wakeups == 1


def test_yield_clocks_down_with_ondemand_governor():
    from repro.cpu import OndemandGovernor
    from repro.sim import Environment, RandomStreams
    from repro.cpu import Machine
    from repro.power import EnergyLedger, PowerModel

    def run_spinner(name):
        env = Environment()
        machine = Machine(
            env,
            n_cores=1,
            governor_factory=OndemandGovernor,
            streams=RandomStreams(seed=1),
        )
        model = PowerModel()
        ledger = EnergyLedger(env, model)
        machine.add_listener(ledger)
        ledger.watch(machine.core(0))
        impl = SINGLE_IMPLEMENTATIONS[name](
            env,
            machine.core(0),
            machine.timers,
            regular_trace(RATE, DURATION),
            PCConfig(),
        ).start()
        env.run(until=DURATION)
        ledger.settle()
        return ledger.total_energy_j()

    bw_energy = run_spinner("BW")
    yield_energy = run_spinner("Yield")
    assert yield_energy < bw_energy  # DVFS clocks the yielding spinner down


def test_mutex_wakes_once_per_item_when_sparse():
    rig, impl = run("Mutex")
    row = rig.powertop.report().row("consumer")
    # 200 items/s, each arriving to an idle consumer → ~200 wakeups/s.
    assert row.wakeups_per_s == pytest.approx(RATE, rel=0.05)
    assert impl.stats.invocations == pytest.approx(RATE * DURATION, rel=0.05)


def test_sem_wakes_once_per_item_when_sparse():
    rig, impl = run("Sem")
    row = rig.powertop.report().row("consumer")
    assert row.wakeups_per_s == pytest.approx(RATE, rel=0.05)


def test_batch_impls_wake_far_less_than_per_item():
    for name in ("BP", "PBP", "SPBP"):
        rig, impl = run(name, PCConfig(buffer_size=25, batch_period_s=20e-3))
        row = rig.powertop.report().row("consumer")
        assert row.wakeups_per_s < RATE / 2, name


def test_pbp_wakes_about_once_per_period_even_when_idle():
    # Rate 0.5 items/s: buffer almost always empty, yet PBP still wakes
    # every period (the paper's criticism of naive periodic batching).
    rig, impl = run(
        "PBP",
        PCConfig(batch_period_s=50e-3),
        rate=0.5,
    )
    expected = DURATION / 50e-3
    assert impl.stats.invocations == pytest.approx(expected, rel=0.15)
    assert impl.stats.scheduled_wakeups == impl.stats.invocations


def test_spbp_matches_period_exactly_when_idle():
    rig, impl = run(
        "SPBP",
        PCConfig(batch_period_s=50e-3),
        rate=0.5,
        timer_kwargs={"signal_jitter_s": 0.0},
    )
    assert impl.stats.invocations == pytest.approx(DURATION / 50e-3, abs=1)


def test_nanosleep_drift_gives_pbp_fewer_or_equal_ticks_than_spbp():
    """PBP's relative rearm + lateness drifts, so over a fixed horizon it
    fits in no more scheduled ticks than drift-free SPBP."""
    cfg = PCConfig(batch_period_s=10e-3)
    _, pbp = run("PBP", cfg, rate=0.5)
    _, spbp = run("SPBP", cfg, rate=0.5)
    assert pbp.stats.scheduled_wakeups <= spbp.stats.scheduled_wakeups


def test_overflow_forces_early_wakeup_in_periodic_batch():
    # Huge period + high rate: the 25-slot buffer fills long before the
    # period expires; overflow wakeups must dominate.
    _, impl = run(
        "PBP",
        PCConfig(buffer_size=25, batch_period_s=0.5),
        rate=1000.0,
    )
    assert impl.stats.overflow_wakeups > impl.stats.scheduled_wakeups
    assert impl.stats.consumed > 0


def test_producer_backpressure_counted():
    # BP with arrivals (1 µs apart) far outpacing the ~6 µs wake-and-
    # drain path: the producer regularly hits a still-full buffer.
    _, impl = run("BP", PCConfig(buffer_size=10), rate=1e6, duration=0.01)
    assert impl.stats.overflows > 0
    # Back-pressure delays but never loses items.
    assert impl.stats.produced == (
        impl.stats.consumed + len(impl.buffer) + impl.in_flight
    )


def test_deadline_misses_tracked_for_bp():
    # BP holds items until the buffer fills: at 200/s with buffer 25, an
    # item can wait ~125 ms ≫ the 2 ms deadline.
    _, impl = run("BP", PCConfig(buffer_size=25))
    assert impl.stats.deadline_misses > 0


def test_mutex_latency_far_below_bp_latency():
    """The paper's latency trade-off: Mutex/Sem have much lower latency
    than batch processing."""
    _, mutex = run("Mutex")
    _, bp = run("BP")
    assert mutex.stats.mean_latency_s < bp.stats.mean_latency_s / 10


def test_unknown_impl_name_rejected():
    with pytest.raises(KeyError):
        SINGLE_IMPLEMENTATIONS["nope"]
