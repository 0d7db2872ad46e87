"""Every multi-pair system aggregates its pairs the same way."""

from dataclasses import fields
from functools import partial

import numpy as np
import pytest

from repro.core import PBPLConfig, PBPLSystem
from repro.faults import ConsumerSlowdown, FaultPlan, RuntimeInjector
from repro.impls import (
    EDFBatchSystem,
    MultiPairSystem,
    PairStats,
    PCConfig,
    phase_shifted_traces,
)
from repro.metrics.quantiles import StreamingLatency
from tests.impls.conftest import Rig, regular_trace

COUNTERS = [f.name for f in fields(PairStats) if f.type == "int"]
assert {"produced", "consumed", "items_shed", "deadline_misses"} <= set(COUNTERS)


def pbpl(rig, traces):
    system = PBPLSystem(rig.env, rig.machine, traces, PBPLConfig(slot_size_s=5e-3))
    return system, [c.stats for c in system.consumers]


def multi(rig, traces, impl="BP"):
    system = MultiPairSystem(rig.env, rig.machine, impl, traces, PCConfig())
    return system, [p.stats for p in system.pairs]


def edf(rig, traces):
    system = EDFBatchSystem(rig.env, rig.machine, traces, PCConfig())
    return system, [p.stats for p in system.pairs]


# (builder, counters the system takes from its own wakeup sources)
SYSTEMS = {
    "PBPL": (pbpl, {"scheduled_wakeups"}),
    "Multi(BP)": (multi, set()),
    "EDF": (edf, {"scheduled_wakeups", "overflow_wakeups", "invocations"}),
}


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_aggregate_is_per_pair_sum_max_and_pool(name):
    build, overridden = SYSTEMS[name]
    rig = Rig(seed=0)
    system, pair_stats = build(rig, phase_shifted_traces(regular_trace(800.0, 1.0), 3))
    system.start()
    rig.env.run(until=1.0)
    # Give every pair distinct counters and miss times, so a counter the
    # aggregate drops cannot pass by being zero everywhere.
    for i, s in enumerate(pair_stats):
        for j, counter in enumerate(COUNTERS):
            setattr(s, counter, getattr(s, counter) + 10 * i + j + 1)
        s.last_miss_s = 0.25 * (i + 1) if i != 1 else 5.0
    agg = system.aggregate_stats()
    for counter in set(COUNTERS) - overridden:
        expected = sum(getattr(s, counter) for s in pair_stats)
        assert getattr(agg, counter) == expected, counter
    assert agg.last_miss_s == 5.0
    pooled = np.concatenate([s.latency.samples for s in pair_stats])
    assert pooled.size > 0
    for q in (50, 95, 99):
        assert agg.latency_percentile(q) == np.percentile(pooled, q)


class StampedLatency(StreamingLatency):
    """A latency record that also logs when each sample was observed."""

    __slots__ = ("env", "times")

    def __init__(self, env):
        super().__init__()
        self.env = env
        self.times = []

    def observe(self, latency_s):
        super().observe(latency_s)
        self.times.append(self.env.now)


@pytest.mark.parametrize(
    "build",
    [partial(multi, impl="Mutex"), partial(multi, impl="BP"), edf],
    ids=["Multi(Mutex)", "Multi(BP)", "EDF"],
)
def test_baseline_last_miss_is_time_of_last_deadline_miss(build):
    rig = Rig(seed=0)
    system, pair_stats = build(rig, phase_shifted_traces(regular_trace(800.0, 1.0), 3))
    for s in pair_stats:
        s.latency = StampedLatency(rig.env)
    plan = FaultPlan([ConsumerSlowdown(0.3, 0.2, factor=500.0)])
    system.start()
    RuntimeInjector(rig.env, system, plan).start()
    rig.env.run(until=1.0)
    deadline = PCConfig().max_response_latency_s
    all_misses = []
    for s in pair_stats:
        misses = [t for t, lat in zip(s.latency.times, s.latency.samples) if lat > deadline]
        assert s.last_miss_s == max(misses, default=float("-inf"))
        all_misses += misses
    agg = system.aggregate_stats()
    assert agg.deadline_misses == len(all_misses) > 0
    assert agg.last_miss_s == max(all_misses)
    assert agg.last_miss_s > plan.last_fault_end_s  # non-zero recovery time
