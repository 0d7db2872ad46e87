"""Kernel self-profiler: dispatch counts are deterministic, self-times
are measured, the hot-spot table renders, and profiling does not change
what the simulation computes."""

import dataclasses

from repro.sim import Environment
from repro.telemetry import KernelProfiler
from repro.trace import record_run
from repro.trace.tracer import TraceEvent

from tests.telemetry.conftest import SPEC


def _toy_env():
    env = Environment()
    hits = {"fast": 0, "slow": 0}

    def fast():
        while True:
            yield env.timeout(0.01)
            hits["fast"] += 1

    def slow():
        while True:
            yield env.timeout(0.05)
            hits["slow"] += 1

    env.process(fast(), name="fast")
    env.process(slow(), name="slow")
    return env, hits


def test_profiler_counts_every_dispatch():
    env, hits = _toy_env()
    profiler = KernelProfiler()
    profiler.run(env, until=1.0)
    counts = profiler.dispatch_counts()
    assert hits["fast"] > hits["slow"] > 0
    # Every timeout resume for a process is one Timeout dispatch to it.
    assert counts[("Timeout", "Process:fast")] == hits["fast"]
    assert counts[("Timeout", "Process:slow")] == hits["slow"]
    report = profiler.report()
    assert report.events_processed == env.events_processed > 0


def test_profiler_matches_unprofiled_run():
    env_a, hits_a = _toy_env()
    KernelProfiler().run(env_a, until=1.0)
    env_b, hits_b = _toy_env()
    env_b.run(until=1.0)
    assert hits_a == hits_b
    assert env_a.now == env_b.now


def _trace_rows(run):
    return [
        tuple(getattr(event, slot) for slot in TraceEvent.__slots__)
        for event in run.tracer.events
    ]


def _stats_row(stats):
    row = {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}
    latency = row.pop("latency")
    return row, latency.samples, latency.total, latency.maximum


def test_failed_profiled_run_restores_the_hook():
    env = Environment()

    def boom():
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    watched = env.timeout(2.0, "x")
    env.process(boom(), name="boom")
    profiler = KernelProfiler()
    try:
        profiler.run(env, until=watched)
    except RuntimeError:
        pass
    else:
        raise AssertionError("the failure was swallowed")
    assert env.dispatch_hook is None
    assert profiler.report().events_processed == env.events_processed
    # The failed run left no stop callback behind on the watched event.
    assert env.run(until=5.0) is None
    assert env.now == 5.0


def test_profiled_record_run_matches_unprofiled_run():
    """On a real rig the profiler only observes: the recorded trace
    events and the run statistics equal those of the plain run."""
    runs = [
        record_run(
            SPEC["impl"],
            SPEC["scenario"],
            duration_s=SPEC["duration_s"],
            n_consumers=SPEC["n_consumers"],
            seed=SPEC["seed"],
            profiler=profiler,
        )
        for profiler in (None, KernelProfiler())
    ]
    plain, profiled = runs
    assert _trace_rows(profiled) == _trace_rows(plain)
    assert _stats_row(profiled.stats) == _stats_row(plain.stats)
    assert profiled.ledger_total_j == plain.ledger_total_j


def test_dispatch_counts_are_deterministic_across_runs():
    counts = []
    for _ in range(2):
        profiler = KernelProfiler()
        run = record_run(
            SPEC["impl"],
            SPEC["scenario"],
            duration_s=0.2,
            n_consumers=SPEC["n_consumers"],
            seed=SPEC["seed"],
            profiler=profiler,
        )
        counts.append(profiler.dispatch_counts())
        assert run.stats.produced > 0
    assert counts[0] == counts[1]


def test_report_renders_top_n_table():
    profiler = KernelProfiler()
    record_run(
        SPEC["impl"],
        SPEC["scenario"],
        duration_s=0.2,
        n_consumers=SPEC["n_consumers"],
        seed=SPEC["seed"],
        profiler=profiler,
    )
    report = profiler.report()
    assert report.events_processed > 0
    assert report.wall_s > 0
    text = report.render(top=3)
    lines = text.splitlines()
    assert "dispatches" in text and "self ms" in text
    assert "kernel self-profile" in text
    # Top-3 plus a rollup row for everything below the fold.
    assert any("more handlers" in line for line in lines)
    rows = report.top(3)
    assert len(rows) == 3
    # Sorted by self time, descending.
    assert rows[0].self_s >= rows[1].self_s >= rows[2].self_s
