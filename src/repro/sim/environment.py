"""The simulation environment: clock, event queue, run loop.

The event queue is one binary heap (:mod:`heapq`) of
``(when, priority, eid, event)`` entries, so dispatch order is the
total order on ``(when, priority, eid)``: timestamp first, URGENT
before NORMAL at equal timestamps, then scheduling order. Every entry
carries a unique ``eid``, so the tuple comparison never reaches the
event itself.

The run loop is deliberately flat: every experiment in this repository
is bottlenecked on :meth:`Environment.run`, so the hot path binds its
locals once and pops the heap without per-event method calls.
:meth:`step` remains for callers that need single-event control.
Instrumentation does not get a loop of its own: the profiler and the
sanitizer set :attr:`Environment.dispatch_hook`, and the one loop hands
each popped entry and its callbacks to that hook instead of running
them inline.
"""

from __future__ import annotations

from heapq import heappop, heappush
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
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        #: Current simulated time. A plain attribute on purpose: it is
        #: read on essentially every simulated action, and a property
        #: costs a function call per read. Only the run loop writes it.
        self.now = float(initial_time)
        #: Min-heap of pending ``(when, priority, eid, event)`` entries.
        self._queue: list = []
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
        return self._queue[0][0] if self._queue else float("inf")

    def __len__(self) -> int:
        return len(self._queue)

    # -- scheduling -------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue a triggered event for processing ``delay`` from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._schedule_at(self.now + delay, priority, event)

    def _schedule_at(self, when: float, priority: int, event: Event) -> None:
        """The queue's single insertion point.

        Every scheduling path (``schedule``, the inlined ``timeout``,
        subclass hooks) funnels through here.
        """
        heappush(self._queue, (when, priority, next(self._eid), event))

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
        if not delay >= 0:  # also rejects NaN
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
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        entry = heappop(self._queue)
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
        queue = self._queue
        dispatch = self.dispatch_hook
        processed = 0
        watched: Optional[Event] = None
        stop_at = float("inf")
        try:
            stop_at, watched = self._arm_until(until)
            while queue:
                entry = heappop(queue)
                when = entry[0]
                if when >= stop_at:
                    # Put it back: the same entry restores the same order.
                    heappush(queue, entry)
                    break
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
            if not stop_at >= self.now:  # also rejects NaN
                raise SimulationError(
                    f"run(until={stop_at}) is in the past (now={self.now})"
                )
        return stop_at, watched

    def __repr__(self) -> str:
        return f"<Environment now={self.now} queued={len(self)}>"
