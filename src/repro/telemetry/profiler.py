"""Deterministic DES self-profiler: who burns the dispatch budget?

The compiled-kernel direction needs to know *which* handlers dominate
event dispatch before anything is worth compiling. This profiler runs
the kernel's own loop, :meth:`repro.sim.environment.Environment.run`,
with its dispatch hook set, and the hook wraps every callback
invocation in a :func:`repro.harness.clock.perf_counter` pair. Pop
order, ``until`` semantics, failure propagation and
``events_processed`` are therefore the kernel's, not a copy of them.

Two kinds of output coexist deliberately:

* **dispatch counts** per (event type, handler) are pure virtual-time
  facts — byte-identical across runs of the same seed; and
* **self-time** is measured wall clock through the ``harness/clock``
  shim (the one sanctioned host-time source, see DET001), so absolute
  times vary between hosts while the *ranking* is stable enough to
  steer optimisation.

Handlers are keyed by their owner: bound methods report
``Type:name`` when the owner carries a ``name``/``owner`` attribute
(e.g. ``Process:consumer-0``), ``Type.method`` otherwise, and free
functions report their qualname.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from repro.harness.clock import perf_counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment


def _handler_label(callback) -> str:
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        name = getattr(owner, "name", None) or getattr(owner, "owner", None)
        if isinstance(name, str) and name:
            return f"{type(owner).__name__}:{name}"
        return f"{type(owner).__name__}.{getattr(callback, '__name__', '?')}"
    return getattr(callback, "__qualname__", repr(callback))


class HotSpot:
    """Aggregated dispatch cost for one (event type, handler) pair."""

    __slots__ = ("event_type", "handler", "dispatches", "self_s")

    def __init__(self, event_type: str, handler: str, dispatches: int, self_s: float):
        self.event_type = event_type
        self.handler = handler
        self.dispatches = dispatches
        self.self_s = self_s


class ProfileReport:
    """Sorted hot-spot rows plus a terminal table renderer."""

    def __init__(self, rows: List[HotSpot], events_processed: int, wall_s: float):
        self.rows = rows
        self.events_processed = events_processed
        self.wall_s = wall_s

    def top(self, n: int) -> List[HotSpot]:
        return self.rows[:n]

    def render(self, top: int = 10) -> str:
        total_s = sum(r.self_s for r in self.rows) or 1.0
        total_n = sum(r.dispatches for r in self.rows)
        lines = [
            f"kernel self-profile: {self.events_processed} events, "
            f"{total_n} dispatches, {self.wall_s * 1e3:.2f} ms wall",
            "",
            f"{'event':<14} {'handler':<38} {'dispatches':>10} "
            f"{'self ms':>9} {'%':>6}",
            "-" * 81,
        ]
        for row in self.top(top):
            lines.append(
                f"{row.event_type:<14} {row.handler:<38} {row.dispatches:>10} "
                f"{row.self_s * 1e3:>9.3f} {100.0 * row.self_s / total_s:>5.1f}%"
            )
        remaining = self.rows[top:]
        if remaining:
            rest_s = sum(r.self_s for r in remaining)
            rest_n = sum(r.dispatches for r in remaining)
            lines.append(
                f"{'...':<14} {f'({len(remaining)} more handlers)':<38} "
                f"{rest_n:>10} {rest_s * 1e3:>9.3f} "
                f"{100.0 * rest_s / total_s:>5.1f}%"
            )
        return "\n".join(lines)


class KernelProfiler:
    """Runs an :class:`Environment` while timing every dispatch."""

    def __init__(self) -> None:
        # (event type name, handler label) -> [dispatches, self seconds]
        self._acc: Dict[Tuple[str, str], List] = {}
        self._wall_s = 0.0
        self._events = 0

    def run(self, env: "Environment", until=None):
        """``env.run(until)`` with every callback dispatch timed."""
        with self.attached(env):
            return env.run(until)

    @contextmanager
    def attached(self, env: "Environment") -> Iterator[None]:
        """Time every dispatch ``env`` makes inside the ``with`` block.

        Sets the profiler as ``env``'s dispatch hook and puts the
        previous hook back on exit; the events it counts are the growth
        of ``env.events_processed``.
        """
        previous = env.dispatch_hook
        env.dispatch_hook = self._dispatch
        events_before = env.events_processed
        t_start = perf_counter()
        try:
            yield
        finally:
            env.dispatch_hook = previous
            self._events += env.events_processed - events_before
            self._wall_s += perf_counter() - t_start

    def _dispatch(self, entry: tuple, callbacks: list) -> None:
        event = entry[3]
        etype = type(event).__name__
        acc = self._acc
        for callback in callbacks:
            key = (etype, _handler_label(callback))
            t0 = perf_counter()
            callback(event)
            dt = perf_counter() - t0
            cell = acc.get(key)
            if cell is None:
                acc[key] = [1, dt]
            else:
                cell[0] += 1
                cell[1] += dt

    def dispatch_counts(self) -> Dict[Tuple[str, str], int]:
        """Deterministic dispatch counts (no timing)."""
        return {key: cell[0] for key, cell in self._acc.items()}

    def report(self) -> ProfileReport:
        rows = [
            HotSpot(etype, handler, cell[0], cell[1])
            for (etype, handler), cell in self._acc.items()
        ]
        # Wall-clock ranking with a deterministic key tiebreak so equal
        # (or near-zero) timings don't reorder between renders.
        rows.sort(key=lambda r: (-r.self_s, -r.dispatches, r.event_type, r.handler))
        return ProfileReport(rows, self._events, self._wall_s)
