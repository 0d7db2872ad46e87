"""The kernel's event queue vs an executable heap model: dispatch order.

Any change to the event queue (DESIGN.md §13) may change *throughput*
only: dispatch order must stay the total order on ``(when, priority,
eid)`` for any stream of schedulings, including same-timestamp bursts,
URGENT/NORMAL ties and events scheduled *during* dispatch at the
current timestamp. These tests pin that order against a reference
``heapq`` model. The two model properties also vary how the loop is
driven — plainly, through the self-profiler, or under the sanitizer —
since the instrumented runs go through the same loop via its dispatch
hook and must dispatch in exactly the same order.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro._compiled import PURE, kernel_backend
from repro.analysis.sanitizer import SanitizingEnvironment
from repro.sim import Environment, Interrupt
from repro.sim.events import NORMAL, URGENT
from repro.telemetry import KernelProfiler

#: Delay grid dense in collisions: exact ties, sub-millisecond spacings,
#: millisecond boundaries, and far-apart outliers.
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
    driver=driver_st,
)
@settings(max_examples=200, deadline=None)
def test_dispatch_order_matches_heap_model(entries, driver):
    make_env, run = DRIVERS[driver]
    env = make_env()
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
    # so URGENT children at the *current* timestamp must run before
    # the still-pending NORMAL entries at that timestamp.
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
    # run(until=None) dispatches strictly before inf, so an
    # inf-scheduled wakeup parks in the queue forever.
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


def test_peek_from_callback_does_not_skip_next_bucket():
    # peek() from inside a dispatch must neither consume nor reorder
    # the entry it reports.
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


def test_interrupted_process_is_not_resumed_by_its_old_target():
    # The interrupt detaches the process's one cached resume callback
    # from the event it was waiting on; when that event fires later it
    # must not drive the process a second time.
    env = Environment()
    seen = []
    old = []

    def sleeper(env):
        old.append(env.timeout(5.0, value="old"))
        try:
            yield old[0]
        except Interrupt as irq:
            seen.append(("interrupted", env.now, irq.cause))
        value = yield env.timeout(10.0, value="new")
        seen.append(("resumed", env.now, value))

    proc = env.process(sleeper(env))

    def interrupter(env):
        yield env.timeout(1.0)
        proc.interrupt("wake")

    env.process(interrupter(env))
    env.run(until=2.0)
    assert old[0].callbacks == []
    assert proc.target.callbacks == [proc._resume]
    env.run()
    assert seen == [("interrupted", 1.0, "wake"), ("resumed", 11.0, "new")]
    assert env.now == 11.0


def test_kernel_backend_reports_this_interpreter():
    # In the source checkout the pure-python kernel is what's imported;
    # the compiled CI job asserts the other branch.
    assert kernel_backend() in (PURE, "compiled")
    import repro.sim.environment as mod

    if mod.__file__.endswith(".py"):
        assert kernel_backend() == PURE
