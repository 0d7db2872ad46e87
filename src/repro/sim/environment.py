"""The simulation environment: clock, calendar event queue, run loop.

The event queue is a *calendar queue* (Brown 1988) tuned for the PBPL
workload shape: events cluster at shared Δ-slot boundaries, so the
queue buckets pending ``(when, priority, eid, event)`` entries by a
fixed time width, keeps only the bucket currently being drained in
sorted order, and batch-dispatches every entry of a bucket — all
same-timestamp events included — in one linear sweep with no per-event
heap percolation. Buckets are sparse (a dict keyed by
``floor(when / width)`` plus a small heap of occupied keys), so
far-future or irregular timers degrade gracefully to singleton buckets
with exactly the cost profile of the old binary heap — the heap
*fallback* and the calendar fast path are the same structure.

Ordering is byte-identical to the previous ``heapq`` implementation:
the dispatch order is the total order on ``(when, priority, eid)``
because bucket keys are monotone in ``when``, each bucket is sorted on
activation, and intra-bucket insertions during a drain use
``bisect.insort`` over the still-pending suffix.

The run loop is deliberately flat: every experiment in this repository
is bottlenecked on :meth:`Environment.run`, so the hot path binds its
locals once and walks the active bucket without per-event method
calls. :meth:`step` remains for callers that need single-event
control. Instrumentation does not get a loop of its own: the
profiler and the sanitizer set :attr:`Environment.dispatch_hook`, and
the one loop hands each popped entry and its callbacks to that hook
instead of running them inline.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Any, Callable, Iterable, Optional, Union

from repro.sim.errors import SimulationError
from repro.sim.events import (
    NORMAL,
    AllOf,
    AnyOf,
    Event,
    Process,
    ProcessGenerator,
    Timeout,
)

#: Default calendar-bucket width. 1 ms divides every stock Δ-slot
#: period (10 ms batch periods, ms-scale ticker periods) while keeping
#: the active bucket short enough that intra-bucket ``insort`` stays
#: cheaper than heap percolation.
DEFAULT_BUCKET_WIDTH_S = 1e-3


class _StopSimulation(Exception):
    """Internal control-flow exception ending :meth:`Environment.run`."""

    def __init__(self, event: Event) -> None:
        super().__init__(event)
        self.event = event


def _stop_simulation(event: Event) -> None:
    """The callback ``run(until=event)`` arms on its watched event."""
    event._defused = True
    raise _StopSimulation(event)


class Environment:
    """Owns simulated time and executes events in timestamp order.

    Ties at the same timestamp are broken first by priority (URGENT
    before NORMAL) and then by scheduling order, which makes every run
    fully deterministic.

    Parameters
    ----------
    initial_time:
        Starting value of :attr:`now` (seconds by convention throughout
        this repository).
    bucket_width_s:
        Calendar-bucket width for the event queue. Purely a throughput
        knob — dispatch order (and therefore every simulated result) is
        independent of it. See :meth:`hint_slot_width`.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S,
    ) -> None:
        #: Current simulated time. A plain attribute on purpose: it is
        #: read on essentially every simulated action, and a property
        #: costs a function call per read. Only the run loop writes it.
        self.now = float(initial_time)
        if bucket_width_s <= 0:
            raise SimulationError(
                f"bucket width must be positive, got {bucket_width_s!r}"
            )
        self.bucket_width_s = float(bucket_width_s)
        self._inv_width = 1.0 / self.bucket_width_s
        #: Sparse calendar: bucket key -> unordered entry list. Keys are
        #: ``floor(when / width)`` (ints), or the timestamp itself for
        #: values beyond float range (``inf`` wakeups).
        self._buckets: dict = {}
        #: Min-heap of occupied bucket keys (pushed once per bucket
        #: creation, popped on activation — never stale).
        self._bucket_keys: list = []
        #: The bucket currently being drained, sorted ascending. Entries
        #: before :attr:`_ridx` are already dispatched; the pending
        #: suffix starts at :attr:`_ridx`.
        self._active: list = []
        self._ridx = 0
        self._active_key: Any = None
        self._eid = count()
        self._active_process: Optional[Process] = None
        #: Lifetime count of events processed (run loop + step). The
        #: ``repro bench`` kernel micro-benchmark divides this by wall
        #: time for its events/sec figure.
        self.events_processed = 0
        #: Dispatch hook. When set, the run loop (and :meth:`step`)
        #: hands it each popped ``(when, priority, eid, event)`` entry
        #: plus the event's callbacks list, and the hook runs the
        #: callbacks — the profiler times them, the sanitizer records
        #: what they touch. ``None`` runs them inline. Read once per
        #: ``run``/``step`` call.
        self.dispatch_hook: Optional[Callable[[tuple, list], None]] = None

    # -- clock & introspection ------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or ``inf`` if none."""
        if self._ridx < len(self._active):
            return self._active[self._ridx][0]
        if self._bucket_keys and self._advance():
            return self._active[0][0]
        return float("inf")

    def __len__(self) -> int:
        pending = len(self._active) - self._ridx
        for bucket in self._buckets.values():
            pending += len(bucket)
        return pending

    # -- scheduling -------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue a triggered event for processing ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._schedule_at(self.now + delay, priority, event)

    def _schedule_at(self, when: float, priority: int, event: Event) -> None:
        """The queue's single insertion point.

        Every scheduling path (``schedule``, the inlined ``timeout``,
        subclass hooks) funnels through here, so the calendar structure
        has exactly one writer to keep consistent.
        """
        entry = (when, priority, next(self._eid), event)
        x = when * self._inv_width
        try:
            key: Any = int(x)
            if key > x:  # int() truncates toward zero; we need floor
                key -= 1
        except (OverflowError, ValueError):  # inf (or nan) timestamps
            key = when
        if key == self._active_key:
            # Falls inside the bucket being drained. Delays are
            # non-negative, so the entry belongs in the pending suffix;
            # insort over [ridx:] keeps same-timestamp URGENT inserts
            # ahead of pending NORMAL ones without ever landing in the
            # already-dispatched prefix.
            insort(self._active, entry, self._ridx)
        else:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [entry]
                heappush(self._bucket_keys, key)
            else:
                bucket.append(entry)

    def _advance(self) -> bool:
        """Activate the next occupied bucket; False if the queue is empty."""
        keys = self._bucket_keys
        if not keys:
            self._active = []
            self._ridx = 0
            self._active_key = None
            return False
        key = heappop(keys)
        bucket = self._buckets.pop(key)
        if len(bucket) > 1:
            bucket.sort()
        self._active = bucket
        self._ridx = 0
        self._active_key = key
        return True

    def _pop_entry(self) -> Optional[tuple]:
        """Consume and return the next ``(when, priority, eid, event)``.

        Returns None when no events remain. This is :meth:`step`'s
        single-event twin of the batched drain in :meth:`run`.
        """
        i = self._ridx
        if i >= len(self._active):
            if not self._advance():
                return None
            i = 0
        entry = self._active[i]
        self._ridx = i + 1
        return entry

    def set_bucket_width(self, width_s: float) -> None:
        """Re-bucket all pending events under a new calendar width.

        A pure throughput knob: dispatch order is unchanged (entries
        keep their original ``(when, priority, eid)`` keys), so results
        are byte-identical for any positive width.
        """
        if width_s <= 0:
            raise SimulationError(f"bucket width must be positive, got {width_s!r}")
        pending = self._active[self._ridx :]
        for bucket in self._buckets.values():
            pending.extend(bucket)
        self.bucket_width_s = float(width_s)
        self._inv_width = 1.0 / self.bucket_width_s
        self._buckets = {}
        self._active = []
        self._ridx = 0
        self._active_key = None
        inv_width = self._inv_width
        buckets = self._buckets
        for entry in pending:
            when = entry[0]
            x = when * inv_width
            try:
                key: Any = int(x)
                if key > x:
                    key -= 1
            except (OverflowError, ValueError):
                key = when
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [entry]
            else:
                bucket.append(entry)
        self._bucket_keys = list(buckets)
        heapify(self._bucket_keys)

    def hint_slot_width(self, delta_s: float) -> None:
        """Tune the calendar to a known Δ-slot period.

        PBPL aligns wakeups to shared slot boundaries, so the natural
        bucket width is a fraction of Δ: wide enough that a boundary's
        event burst lands in one bucket (one sort, one linear drain),
        narrow enough that intra-bucket insertions stay cheap. Clamped
        to [0.1 ms, 10 ms]; no-ops on non-finite or non-positive hints.
        """
        if not delta_s > 0 or delta_s != delta_s or delta_s == float("inf"):
            return
        self.set_bucket_width(min(max(delta_s / 4.0, 1e-4), 1e-2))

    # -- factories --------------------------------------------------------
    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process from ``generator``; returns its Process event."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` time units from now.

        This is the kernel's single hottest allocation site (every
        ``busy`` slice, sleep and slot alarm goes through it), so the
        Timeout is built inline — same invariants as
        :class:`~repro.sim.events.Timeout`, no layered ``__init__``.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._exc = None
        event._ok = True
        event._defused = False
        event.delay = delay
        self._schedule_at(self.now + delay, NORMAL, event)
        return event

    def event(self) -> Event:
        """A fresh untriggered event (trigger it with succeed/fail)."""
        return Event(self)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event: first of ``events`` to succeed."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event: all of ``events`` succeeded."""
        return AllOf(self, events)

    # -- execution ----------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        dispatch = self.dispatch_hook
        entry = self._pop_entry()
        if entry is None:
            raise SimulationError("step() on an empty schedule")
        when, _prio, _eid, event = entry
        self.now = when
        self.events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        if dispatch is None:
            for callback in callbacks:
                callback(event)
        else:
            dispatch(entry, callbacks)
        if not event._ok and not event._defused:
            # A failure nobody handled: surface it instead of dropping it.
            exc = event._exc
            assert exc is not None
            raise exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run all events scheduled strictly before it, then
          set :attr:`now` to it;
        * an :class:`Event` — run until that event is processed and
          return its value (re-raising its exception on failure).
        """
        # The hot loop: a batched bucket drain. The active bucket is a
        # sorted run, so every entry of a bucket — equal-timestamp
        # bursts included — dispatches in one linear sweep; heap work
        # happens only once per occupied bucket, in _advance().
        advance = self._advance
        dispatch = self.dispatch_hook
        active = self._active
        i = self._ridx
        processed = 0
        watched: Optional[Event] = None
        stop_at = float("inf")
        try:
            stop_at, watched = self._arm_until(until)
            while True:
                if i >= len(active):
                    self._ridx = i
                    if not advance():
                        break
                    active = self._active
                    i = 0
                entry = active[i]
                when = entry[0]
                if when >= stop_at:
                    break
                i += 1
                # Keep the cursor honest before running user code: a
                # callback may schedule into this bucket (insort reads
                # _ridx) or introspect the queue.
                self._ridx = i
                self.now = when
                processed += 1
                event = entry[3]
                callbacks = event.callbacks
                event.callbacks = None
                if dispatch is None:
                    for callback in callbacks:
                        callback(event)
                else:
                    dispatch(entry, callbacks)
                if active is not self._active:
                    # A callback replaced the active bucket — via
                    # set_bucket_width() re-bucketing, or a peek() that
                    # advanced past an exhausted bucket. Re-sync or the
                    # loop would walk the stale list (double dispatch)
                    # and then skip the freshly activated bucket.
                    active = self._active
                    i = self._ridx
                if not event._ok and not event._defused:
                    exc = event._exc
                    assert exc is not None
                    raise exc
        except _StopSimulation as stop:
            if not stop.event._ok:
                assert stop.event._exc is not None
                raise stop.event._exc from None
            return stop.event._value
        finally:
            self.events_processed += processed
            if watched is not None and watched.callbacks is not None:
                # Leaving other than through the watched event (a failure
                # or a drained schedule): disarm it, or a later run/step
                # would stop when it fires.
                watched.callbacks.remove(_stop_simulation)
        if watched is not None:
            raise SimulationError(
                "run(until=event) exhausted the schedule before the event "
                "triggered — likely a deadlock"
            )
        if stop_at != float("inf"):
            self.now = stop_at
        return None

    def _arm_until(self, until: Union[None, float, Event]) -> tuple:
        """Normalise ``run``'s ``until`` into ``(stop_at, watched)``.

        When ``until`` is an event that already completed, raises
        :class:`_StopSimulation` so the caller's handler returns its
        value (or re-raises its failure) through the same path a live
        stop callback would take. Must be called inside the ``try`` that
        handles :class:`_StopSimulation`.
        """
        stop_at = float("inf")
        watched: Optional[Event] = None
        if isinstance(until, Event):
            watched = until
            if watched.callbacks is None:  # already processed
                raise _StopSimulation(watched)
            watched.callbacks.append(_stop_simulation)
        elif until is not None:
            stop_at = float(until)
            if stop_at < self.now:
                raise SimulationError(
                    f"run(until={stop_at}) is in the past (now={self.now})"
                )
        return stop_at, watched

    def __repr__(self) -> str:
        return f"<Environment now={self.now} queued={len(self)}>"
