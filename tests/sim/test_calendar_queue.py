"""The calendar event queue vs a reference heap: order equivalence.

The queue rewrite (DESIGN.md §13) is only allowed to change *throughput*
— dispatch order must remain the total order on ``(when, priority, eid)``
that the old binary heap produced, for any stream of schedulings,
including same-timestamp bursts, URGENT/NORMAL ties and events scheduled
*during* a same-bucket drain. These tests pin that equivalence against
an executable heap model, and cover the width knobs that must never
change results. The two model properties also vary how the loop is
driven — plainly, through the self-profiler, or under the sanitizer —
since the instrumented runs go through the same loop via its dispatch
hook and must dispatch in exactly the same order.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._compiled import PURE, kernel_backend
from repro.analysis.sanitizer import SanitizingEnvironment
from repro.sim import Environment
from repro.sim.errors import SimulationError
from repro.sim.events import NORMAL, URGENT
from repro.telemetry import KernelProfiler

#: Delay grid dense in collisions: exact ties, sub-bucket spacings,
#: bucket-boundary values (default width 1e-3), and far-apart outliers.
TIE_PRONE_DELAYS = [
    0.0, 0.0, 1e-4, 1e-4, 2.5e-4, 9.99e-4, 1e-3, 1e-3, 1.0001e-3,
    5e-3, 0.0123, 0.0123, 1.0, 7.25, 1e3,
]

delays_st = st.one_of(
    st.sampled_from(TIE_PRONE_DELAYS),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
priority_st = st.sampled_from([URGENT, NORMAL])

#: How the loop is driven: name -> (environment factory, run call).
DRIVERS = {
    "plain": (Environment, lambda env: env.run()),
    "profiler": (Environment, lambda env: KernelProfiler().run(env)),
    "sanitizer": (SanitizingEnvironment, lambda env: env.run()),
}
driver_st = st.sampled_from(sorted(DRIVERS))


def _recorded_event(env, order, tag):
    ev = env.event()
    ev._ok = True
    ev.callbacks.append(lambda _e: order.append(tag))
    return ev


@given(
    entries=st.lists(
        st.tuples(delays_st, priority_st), min_size=1, max_size=80
    ),
    width=st.sampled_from([1e-4, 1e-3, 1e-2, 0.6, 1e6]),
    driver=driver_st,
)
@settings(max_examples=200, deadline=None)
def test_dispatch_order_matches_heap_model(entries, width, driver):
    make_env, run = DRIVERS[driver]
    env = make_env()
    env.set_bucket_width(width)
    order = []
    heap = []
    for eid, (delay, priority) in enumerate(entries):
        env.schedule(_recorded_event(env, order, eid), delay, priority)
        heapq.heappush(heap, (delay, priority, eid))
    run(env)
    expected = []
    while heap:
        expected.append(heapq.heappop(heap)[2])
    assert order == expected


@given(
    entries=st.lists(
        st.tuples(
            delays_st,
            priority_st,
            # Children scheduled from inside this event's callback:
            # (extra delay, priority); 0.0 extra = the live-drain case.
            st.lists(
                st.tuples(
                    st.sampled_from([0.0, 0.0, 1e-4, 1e-3, 0.5]),
                    priority_st,
                ),
                max_size=3,
            ),
        ),
        min_size=1,
        max_size=30,
    ),
    driver=driver_st,
)
@settings(max_examples=200, deadline=None)
def test_mid_dispatch_scheduling_matches_heap_model(entries, driver):
    # Real run: each initial event's callback schedules its children,
    # so URGENT children at the *current* timestamp must slot into the
    # still-pending suffix of the active bucket.
    make_env, run = DRIVERS[driver]
    env = make_env()
    order = []

    def make_event(tag, children):
        ev = env.event()
        ev._ok = True

        def fire(_e):
            order.append(tag)
            for j, (extra, prio) in enumerate(children):
                env.schedule(make_event((tag, j), []), extra, prio)

        ev.callbacks.append(fire)
        return ev

    for i, (delay, priority, children) in enumerate(entries):
        env.schedule(make_event(i, children), delay, priority)
    run(env)

    # Heap model: same eid assignment discipline (one eid per schedule
    # call, children numbered at dispatch time).
    heap = []
    eid = 0
    meta = {}
    for i, (delay, priority, children) in enumerate(entries):
        heapq.heappush(heap, (delay, priority, eid))
        meta[eid] = (i, children)
        eid += 1
    expected = []
    while heap:
        when, _prio, e = heapq.heappop(heap)
        tag, children = meta[e]
        expected.append(tag)
        for j, (extra, prio) in enumerate(children):
            heapq.heappush(heap, (when + extra, prio, eid))
            meta[eid] = ((tag, j), [])
            eid += 1
    assert order == expected


def test_same_timestamp_burst_dispatches_in_schedule_order():
    env = Environment()
    order = []
    for i in range(1000):
        env.schedule(_recorded_event(env, order, i), 5e-3)
    env.run()
    assert order == list(range(1000))


def test_urgent_beats_normal_within_a_batch():
    env = Environment()
    order = []
    env.schedule(_recorded_event(env, order, "n0"), 1e-3, NORMAL)
    env.schedule(_recorded_event(env, order, "u0"), 1e-3, URGENT)
    env.schedule(_recorded_event(env, order, "n1"), 1e-3, NORMAL)
    env.schedule(_recorded_event(env, order, "u1"), 1e-3, URGENT)
    env.run()
    assert order == ["u0", "u1", "n0", "n1"]


def test_infinite_timestamps_sort_after_everything():
    # Same semantics as the old heap: run(until=None) dispatches strictly
    # before inf, so an inf-scheduled wakeup parks in the queue forever.
    env = Environment()
    order = []
    env.schedule(_recorded_event(env, order, "inf"), float("inf"))
    env.schedule(_recorded_event(env, order, "soon"), 1e-3)
    env.schedule(_recorded_event(env, order, "later"), 2.0)
    assert env.peek() == 1e-3
    env.run()
    assert order == ["soon", "later"]
    assert env.now == 2.0
    assert len(env) == 1
    assert env.peek() == float("inf")


def test_set_bucket_width_rebuckets_without_reordering():
    env = Environment()
    order = []
    for i in range(50):
        env.schedule(_recorded_event(env, order, i), (i % 7) * 1e-3)
    assert len(env) == 50
    env.set_bucket_width(0.5)
    assert len(env) == 50
    env.run()
    expected = [i for _, i in sorted(((i % 7), i) for i in range(50))]
    assert order == expected


def test_set_bucket_width_mid_run_preserves_pending_order():
    env = Environment()
    order = []

    def rebucket(_e):
        order.append("rebucket")
        env.set_bucket_width(0.25)

    ev = env.event()
    ev._ok = True
    ev.callbacks.append(rebucket)
    env.schedule(ev, 1e-3)
    for i in range(20):
        env.schedule(_recorded_event(env, order, i), 1e-3 + (i % 5) * 1e-3)
    env.run()
    assert order[0] == "rebucket"
    assert order[1:] == [i for _, i in sorted(((i % 5), i) for i in range(20))]


def test_peek_from_callback_does_not_skip_next_bucket():
    # peek() may activate the next bucket when the current one is
    # exhausted; the run loop must pick up the replacement instead of
    # advancing a second time (which would silently drop the bucket).
    env = Environment()
    order = []

    def peeker(_e):
        order.append("first")
        assert env.peek() == 5e-3

    ev = env.event()
    ev._ok = True
    ev.callbacks.append(peeker)
    env.schedule(ev, 1e-3)
    env.schedule(_recorded_event(env, order, "second"), 5e-3)
    env.run()
    assert order == ["first", "second"]


def test_set_bucket_width_rejects_nonpositive():
    env = Environment()
    for bad in (0.0, -1e-3):
        try:
            env.set_bucket_width(bad)
        except SimulationError:
            pass
        else:
            raise AssertionError(f"width {bad} accepted")


def test_hint_slot_width_clamps_to_sane_range():
    env = Environment()
    env.hint_slot_width(10e-3)  # the stock Δ: width = Δ/4
    assert env.bucket_width_s == 2.5e-3
    env.hint_slot_width(1e-9)  # clamped up
    assert env.bucket_width_s == 1e-4
    env.hint_slot_width(1e6)  # clamped down
    assert env.bucket_width_s == 1e-2


def test_hint_slot_width_ignores_degenerate_hints():
    env = Environment()
    before = env.bucket_width_s
    for bad in (0.0, -1.0, float("inf"), float("nan")):
        env.hint_slot_width(bad)
        assert env.bucket_width_s == before


def test_environment_rejects_nonpositive_width():
    try:
        Environment(bucket_width_s=0.0)
    except SimulationError:
        pass
    else:
        raise AssertionError("zero bucket width accepted")


def test_kernel_backend_reports_this_interpreter():
    # In the source checkout the pure-python kernel is what's imported;
    # the compiled CI job asserts the other branch.
    assert kernel_backend() in (PURE, "compiled")
    import repro.sim.environment as mod

    if mod.__file__.endswith(".py"):
        assert kernel_backend() == PURE
