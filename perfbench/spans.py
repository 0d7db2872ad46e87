"""Per-layer span recording by wrapping the program's functions from outside.

No file under ``src/`` knows about this module. :class:`LayerTracer`
replaces each target in :data:`TARGETS` with a wrapper that opens a
span on entry and closes it on exit, and puts every original back on
:meth:`LayerTracer.uninstall`. Spans are folded into per-target totals
as they close (call count, self seconds, inclusive seconds), so memory
stays constant however many millions of spans a pass opens.

Rules the wrappers follow:

* A target's **layer** is the package of the module that defines it,
  except where :data:`TARGETS` says otherwise to follow what the code
  does rather than where it lives: every ``CoreListener`` hook (the
  energy / residency integrators, whichever package holds them) is
  ``power``; ``PairStats`` and the systems' ``aggregate_stats`` (the
  run statistics) are ``metrics``; ``phase_shifted_traces`` is
  ``workloads``; the offline optimum in ``core/oracle.py`` is
  ``oracle``, so that ``core`` counts only PBPL's online decisions.
* A **generator** target (a simulation process such as
  ``LatchingConsumer.process`` or ``CoreHold.busy``) is timed per
  resume: each ``send``/``throw`` into it is one span.
* **Self time** is a span's duration minus the durations of the spans
  it directly encloses. ``Environment.run`` is a ``sim`` span, so
  ``sim`` self time is the event loop's dispatch plus the kernel calls
  (``timeout``, ``schedule``, ``succeed`` ...) made from other layers.
* Only methods a class defines in its own ``__dict__`` are wrapped, so
  inherited methods are never shadowed. (``Core`` calls a listener hook
  only if the listener's class overrides it; a wrapper on the base
  ``CoreListener`` would change which hooks run.)
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, class name or None, attribute names, layer override)``.
#: ``None`` for the names means every public function the class (or
#: module) defines. Layers default to the package under ``repro``.
TARGETS: Tuple[Tuple[str, Optional[str], Optional[Tuple[str, ...]], Optional[str]], ...] = (
    # sim: the event loop and the kernel API other layers call into.
    ("repro.sim.environment", "Environment",
     ("run", "step", "schedule", "timeout", "event", "process", "any_of", "all_of"), None),
    ("repro.sim.events", "Event", ("succeed", "fail"), None),
    ("repro.sim.primitives", "Semaphore", None, None),
    ("repro.sim.primitives", "Mutex", None, None),
    ("repro.sim.primitives", "ConditionVariable", None, None),
    # core: PBPL's slot managers and latching consumers.
    ("repro.core.manager", "CoreManager", ("process", "reserve", "cancel", "start"), None),
    ("repro.core.consumer", "LatchingConsumer",
     ("process", "deliver", "try_deliver", "activate", "start", "average_buffer_capacity"), None),
    ("repro.core.system", "PBPLSystem", ("start", "buffered_items", "average_buffer_capacity"), None),
    ("repro.core.system", "PBPLSystem", ("aggregate_stats",), "metrics"),
    ("repro.core.oracle", None, ("optimal_wakeups",), "oracle"),
    # buffers: the global pool and the buffer classes.
    ("repro.buffers.pool", "GlobalBufferPool", None, None),
    ("repro.buffers.overflow", "OverflowPolicyMixin", ("push", "try_push", "set_policy"), None),
    ("repro.buffers.segmented", "SegmentedBuffer", None, None),
    ("repro.buffers.ring", "RingBuffer", None, None),
    ("repro.buffers.bounded", "BoundedBuffer", None, None),
    # cpu: core occupancy, accounting and timers.
    ("repro.cpu.core", "Core",
     ("acquire", "execute", "sched_yield", "cancel", "park", "unpark",
      "set_next_wake_hint", "_account_busy"), None),
    ("repro.cpu.core", "CoreHold", ("busy", "busy_until", "release"), None),
    ("repro.cpu.timers", "TimerService", None, None),
    ("repro.cpu.timers", "PeriodicSignalTimer", None, None),
    # impls: producers and the baseline pairs (their consumer processes
    # are the private ``_consumer`` generators).
    ("repro.impls.base", "Producer", ("process",), None),
    ("repro.impls.single", "PCImplementation", ("start",), None),
    ("repro.impls.single", "BusyWaiting", ("_consumer", "_deliver"), None),
    ("repro.impls.single", "MutexCondvar", ("_consumer", "_deliver"), None),
    ("repro.impls.single", "SemaphorePair", ("_consumer", "_deliver"), None),
    ("repro.impls.single", "BatchProcessing", ("_consumer", "_deliver"), None),
    ("repro.impls.single", "_PeriodicBatchBase", ("_consumer", "_deliver"), None),
    ("repro.impls.base", "PairStats", ("record_latency", "latency_percentile"), "metrics"),
    ("repro.impls.multi", "MultiPairSystem", ("start", "buffered_items"), None),
    ("repro.impls.multi", "MultiPairSystem", ("aggregate_stats",), "metrics"),
    ("repro.impls.multi", None, ("phase_shifted_traces",), "workloads"),
    # metrics: streaming latency statistics and replicate summaries.
    ("repro.metrics.quantiles", "StreamingLatency", ("observe", "quantile"), None),
    ("repro.metrics.run", None, ("summarise",), None),
    ("repro.metrics.stats", None, ("confidence_interval",), None),
    # power: instruments that are not CoreListener hooks.
    ("repro.power.ledger", "EnergyLedger",
     ("settle", "total_energy_j", "average_power_w", "watch"), None),
    ("repro.power.instruments", "PowerTop", ("report",), None),
    ("repro.power.instruments", "Oscilloscope", ("observe_window", "observe_windows"), None),
    # telemetry: the registry, its instruments, exporters, reconcilers.
    ("repro.telemetry.registry", "MetricsRegistry", None, None),
    ("repro.telemetry.instruments", "Counter", ("inc",), None),
    ("repro.telemetry.instruments", "Gauge", ("set",), None),
    ("repro.telemetry.instruments", "Histogram", ("observe",), None),
    ("repro.telemetry.collectors", "PowerCollector", ("watch", "settle"), None),
    ("repro.telemetry.export", None, ("to_openmetrics",), None),
    ("repro.telemetry.reconcile", None,
     ("reconcile_counters", "reconcile_energy", "reconcile_core_wakeups"), None),
    # trace: the tracer, the recorder and the exporters.
    ("repro.trace.tracer", "Tracer",
     ("instant", "counter", "begin", "end", "complete", "finalize"), None),
    ("repro.trace.power", "TracePowerListener", ("watch", "finalize"), None),
    ("repro.trace.recorder", None, ("record_run",), None),
    ("repro.trace.export", None, ("to_chrome_json", "validate_chrome_trace"), None),
    ("repro.trace.energy", None, ("reconcile",), None),
    # workloads / harness: synthesis, rig assembly, the idle baseline.
    ("repro.workloads.generators", None, ("worldcup_like_trace",), None),
    ("repro.workloads.trace", "Trace", ("shifted",), None),
    ("repro.harness.runner", None, ("run_multi", "baseline_power_w", "base_trace"), None),
    ("repro.harness.runner", "Rig", ("build", "measure_power_w"), None),
    # analysis: the two-pass lint engine (facts = the local pass).
    ("repro.analysis.engine", None, ("analyze", "_facts_for_files"), None),
)

#: Every hook ``Core`` dispatches to its listeners (always ``power``).
LISTENER_HOOKS = ("on_state_change", "on_wakeup", "on_execute", "on_yield", "on_task_wakeup")
#: Modules whose CoreListener subclasses are the power integrators.
LISTENER_MODULES = (
    "repro.power.ledger", "repro.power.instruments", "repro.power.timeline",
    "repro.power.attribution", "repro.trace.power", "repro.telemetry.collectors",
    "repro.cpu.cluster",
)

#: Layers in report order (``unattributed`` is computed, never a span).
LAYERS = (
    "sim", "core", "buffers", "cpu", "impls", "metrics", "power",
    "telemetry", "trace", "workloads", "harness", "oracle", "analysis",
)


class TargetStats:
    """Running totals for one wrapped function."""

    __slots__ = ("key", "layer", "calls", "self_s", "incl_s", "extra")

    def __init__(self, key: str, layer: str) -> None:
        self.key = key
        self.layer = layer
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        #: Target-specific counters filled by probes (see _PROBES).
        self.extra: Dict[str, int] = {}

    def reset(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.extra = {}


def _probe_reserve(stats: TargetStats, args, kwargs):
    """CoreManager.reserve: does the slot already hold another consumer?"""
    manager, consumer, slot = args[0], args[1], args[2]
    track = manager.track
    others = track.reserved_count(slot) - (track.reservation_of(consumer) == slot)
    if others > 0:
        stats.extra["latched"] = stats.extra.get("latched", 0) + 1
    return None


def _probe_upsize(stats: TargetStats, args, kwargs):
    """GlobalBufferPool.upsize: did the pool grant extra slots?"""
    pool = args[0]
    before = pool.upsize_grants

    def after() -> None:
        if pool.upsize_grants > before:
            stats.extra["granted"] = stats.extra.get("granted", 0) + 1

    return after


_PROBES: Dict[str, Callable] = {
    "repro.core.manager:CoreManager.reserve": _probe_reserve,
    "repro.buffers.pool:GlobalBufferPool.upsize": _probe_upsize,
}


class LayerTracer:
    """Installs span wrappers, accumulates their totals, removes them."""

    def __init__(self) -> None:
        self.stats: Dict[str, TargetStats] = {}
        #: Seconds covered by outermost spans (no enclosing span).
        self.root_s = 0.0
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.wrapper_codes: set = set()

    # -- accumulation ---------------------------------------------------------
    def reset(self) -> None:
        for st in self.stats.values():
            st.reset()
        self.root_s = 0.0

    def self_by_layer(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for st in self.stats.values():
            out[st.layer] += st.self_s
        return out

    def get(self, key: str) -> TargetStats:
        return self.stats.get(key) or TargetStats(key, "")

    # -- wrappers ---------------------------------------------------------------
    def _plain(self, fn, st: TargetStats, probe):
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            st.calls += 1
            after = probe(st, args, kwargs) if probe is not None else None
            frame = [perf(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = perf() - frame[0]
                st.self_s += dur - frame[1]
                st.incl_s += dur
                if stack:
                    stack[-1][1] += dur
                else:
                    tracer.root_s += dur
                if after is not None:
                    after()

        self.wrapper_codes.add(wrapper.__code__)
        return _copy_meta(wrapper, fn)

    def _generator(self, fn, st: TargetStats):
        stack = self._stack
        perf = time.perf_counter
        tracer = self

        def resumes(gen):
            value = None
            exc = None
            while True:
                frame = [perf(), 0.0]
                stack.append(frame)
                try:
                    if exc is None:
                        item = gen.send(value)
                    else:
                        item, exc = gen.throw(exc), None
                except StopIteration as stop:
                    return stop.value
                finally:
                    stack.pop()
                    dur = perf() - frame[0]
                    st.self_s += dur - frame[1]
                    st.incl_s += dur
                    if stack:
                        stack[-1][1] += dur
                    else:
                        tracer.root_s += dur
                try:
                    value = yield item
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as err:  # delivered into the process
                    exc, value = err, None

        def wrapper(*args, **kwargs):
            st.calls += 1
            gen = fn(*args, **kwargs)
            timed = resumes(gen)
            # Process names default to the generator's __name__.
            timed.__name__ = gen.__name__
            timed.__qualname__ = gen.__qualname__
            return timed

        self.wrapper_codes.update((wrapper.__code__, resumes.__code__))
        return _copy_meta(wrapper, fn)

    def _wrap(self, fn, key: str, layer: str):
        st = self.stats.setdefault(key, TargetStats(key, layer))
        if inspect.isgeneratorfunction(fn):
            return self._generator(fn, st)
        return self._plain(fn, st, _PROBES.get(key))

    # -- install / uninstall ------------------------------------------------------
    def install(self) -> None:
        """Wrap every target. Objects built afterwards bind the wrappers."""
        if self._patches:
            raise RuntimeError("span wrappers are already installed")
        # Import everything first: a module imported mid-install would
        # bind an already-patched function by ``from x import f``.
        for module_name in [t[0] for t in TARGETS] + list(LISTENER_MODULES):
            importlib.import_module(module_name)
        for module_name, cls_name, names, layer in TARGETS:
            module = sys.modules[module_name]
            layer = layer or module_name.split(".")[1]
            if cls_name is None:
                for name in names or _public(vars(module), module_name):
                    self._patch_function(module, name, layer)
            else:
                cls = getattr(module, cls_name)
                for name in names or _public(vars(cls), module_name):
                    self._patch_method(cls, name, f"{module_name}:{cls_name}.{name}", layer)
        from repro.cpu.listeners import CoreListener

        for cls in _subclasses(CoreListener):
            for hook in LISTENER_HOOKS:
                if hook in vars(cls):
                    self._patch_method(cls, hook, f"{cls.__module__}:{cls.__name__}.{hook}", "power")

    def _patch_method(self, cls, name: str, key: str, layer: str) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, key, layer))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self._wrap(raw.__func__, key, layer))
        else:
            new = self._wrap(raw, key, layer)
        self._patches.append((cls, name, raw))
        setattr(cls, name, new)

    def _patch_function(self, module, name: str, layer: str) -> None:
        """Replace a module function everywhere ``repro`` holds a
        reference to it (``from x import f`` copies the binding)."""
        original = getattr(module, name)
        new = self._wrap(original, f"{module.__name__}:{name}", layer)
        for holder in list(sys.modules.values()):
            holder_name = getattr(holder, "__name__", "") or ""
            if not holder_name.startswith("repro"):
                continue
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, new)

    def uninstall(self) -> None:
        """Put every original back, in reverse order of patching, then
        unwrap any binding a module imported while the wrappers were
        live copied from a patched one."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        for module_name, attr in self.leftovers():
            if "." not in attr:
                module = sys.modules[module_name]
                setattr(module, attr, getattr(module, attr).__wrapped__)

    def leftovers(self) -> List[Tuple[str, str]]:
        """``(module, name)`` pairs in ``repro`` still bound to a wrapper,
        as module attributes or class attributes (``name`` is then
        ``Class.method``). Empty after :meth:`uninstall`."""
        found = []
        for module_name, module in sorted(sys.modules.items()):
            if not module_name.startswith("repro"):
                continue
            for attr, value in vars(module).items():
                if _is_wrapper(value, self.wrapper_codes):
                    found.append((module_name, attr))
                if inspect.isclass(value) and value.__module__ == module_name:
                    for name, raw in vars(value).items():
                        if _is_wrapper(raw, self.wrapper_codes):
                            found.append((module_name, f"{attr}.{name}"))
        return found


def _is_wrapper(value, codes) -> bool:
    func = getattr(value, "__func__", value)
    return getattr(func, "__code__", None) in codes


def _public(namespace: dict, module_name: str) -> List[str]:
    return [
        name
        for name, value in namespace.items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module_name
    ]


def _subclasses(cls) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in out:
            out.append(sub)
            todo.extend(sub.__subclasses__())
    return sorted(out, key=lambda c: (c.__module__, c.__name__))


def _copy_meta(wrapper, fn):
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__module__ = fn.__module__
    wrapper.__wrapped__ = fn
    return wrapper
