"""Pin the *work* of two reference runs, not just their outputs.

``Environment.events_processed`` counts every dispatched event. A
per-event optimisation of the kernel or of a hot model loop must leave
these counts exactly where they are: a different count means the run
did different work, even if its headline outputs happen to agree.
"""

from repro.cli import GOLDEN_SPEC
from repro.harness.params import StandardParams
from repro.harness.runner import CONSUMER_CORE, Rig, base_trace
from repro.impls import MultiPairSystem, phase_shifted_traces
from repro.trace import record_run


def test_golden_pbpl_smoke_event_count():
    spec = GOLDEN_SPEC
    run = record_run(
        spec["impl"],
        spec["scenario"],
        duration_s=spec["duration_s"],
        n_consumers=spec["n_consumers"],
        seed=spec["seed"],
    )
    assert run.tracer.env.events_processed == 5337
    assert run.stats.consumed == 2010


def test_mutex_five_pairs_event_count():
    # The blocking-fig9 Mutex cell's wiring (see run_multi), one second.
    params = StandardParams(duration_s=1.0, seed=2014)
    rig = Rig.build(params, 0)
    traces = phase_shifted_traces(base_trace(params, 0), 5)
    system = MultiPairSystem(
        rig.env, rig.machine, "Mutex", traces, params.pc_config(),
        consumer_cores=[CONSUMER_CORE],
    ).start()
    rig.env.run(until=params.duration_s)
    assert rig.env.events_processed == 77177
    assert system.aggregate_stats().consumed == 11110
