"""The benchmark's four workloads.

Each workload is a closed loop: one *pass* runs its phases in order,
and the next pass starts only after the previous one finished. A phase
is one Fig. 9 cell, or one step of the instrumented or lint runs.
``run()`` is the timed work. ``check()`` runs after the clock stops and
turns the phase's output into a :class:`PhaseResult` (digest, checks,
event count, model metrics).

Every simulated number comes from the entry points the figure suite and
the CLI use: ``harness.runner.run_multi``, ``trace.record_run``,
``core.oracle.optimal_wakeups`` and ``analysis.engine.analyze``.
Functions are always looked up through their module at call time, so
the span wrappers installed by :mod:`spans` see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro.analysis.cache as lint_cache
import repro.analysis.engine as lint_engine
import repro.core.oracle as oracle
import repro.harness.runner as runner
import repro.telemetry as telemetry
import repro.trace as trace
from repro.core.system import PBPLSystem
from repro.harness.params import StandardParams
from repro.impls.multi import MultiPairSystem

import corpus

#: Default workload seed (``StandardParams.seed``).
DEFAULT_SEED = 2014
#: Second seed, held out for re-checking a claim made at the default.
HELD_OUT_SEED = 4202

#: Joules by which trace and collector energy may differ from the ledger.
ENERGY_TOL_J = 1e-9

#: Telemetry reconciliations that are known not to hold at a run's
#: cut-off. ``items_consumed_total`` is incremented once per batch, when
#: the batch ends, while ``stats.consumed`` counts each item as it is
#: served; a batch still in progress at ``duration_s`` leaves the two
#: apart (seed 106 of this workload: 22136 vs 22147, and
#: ``repro metrics snapshot --consumers 5 --seed 106`` fails the same
#: way). Reported as advisories until the counter is fixed, not hidden.
KNOWN_CUTOFF_DRIFT = ("items_consumed_total == stats.consumed",)

#: Model metrics, in simulated time (exact for a fixed seed).
MODEL_KEYS = (
    "wakeups_per_s", "power_w", "oracle_ratio", "deadline_miss_frac", "p99_latency_ms",
)


@dataclasses.dataclass
class PhaseResult:
    """What one phase of one pass produced, as the checks see it."""

    digest: str
    #: ``(check name, passed, detail)`` for every correctness check.
    checks: List[Tuple[str, bool, str]]
    #: DES events dispatched (lint: one per module analysed).
    events: int
    #: Model metrics of this phase (simulated phases only).
    model: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Counts layers report that are not function calls.
    layer: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Failed checks that do not fail the phase (see KNOWN_CUTOFF_DRIFT).
    advisories: List[str] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


@dataclasses.dataclass
class Phase:
    name: str
    run: Callable[[], object]
    check: Callable[[object], PhaseResult]


def _digest(*parts) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=12).hexdigest()


@contextmanager
def captured_systems():
    """Collect every PBPL / multi-pair system started inside the block
    (``run_multi`` and ``record_run`` build theirs internally; the
    conservation and pool checks need them)."""
    started: list = []
    originals = {cls: vars(cls)["start"] for cls in (PBPLSystem, MultiPairSystem)}

    def hook(original):
        def start(self):
            started.append(self)
            return original(self)

        return start

    for cls, original in originals.items():
        cls.start = hook(original)
    try:
        yield started
    finally:
        for cls, original in originals.items():
            cls.start = original


def _conservation(system, stats) -> Tuple[str, bool, str]:
    buffered = system.buffered_items()
    ok = stats.produced == stats.consumed + buffered + stats.items_shed
    return (
        "produced == consumed + buffered + shed",
        ok,
        f"{stats.produced} vs {stats.consumed}+{buffered}+{stats.items_shed}",
    )


def _pool_invariant(system) -> Tuple[str, bool, str]:
    if not isinstance(system, PBPLSystem):
        return ("pool invariant", True, "no pool")
    try:
        system.pool.check_invariant()
    except AssertionError as exc:
        return ("pool invariant", False, str(exc))
    return ("pool invariant", True, "")


def _model(wakeups_per_s, power_w, optimum_per_s, misses, consumed, p99_s) -> Dict[str, float]:
    return {
        "wakeups_per_s": wakeups_per_s,
        "power_w": power_w,
        "oracle_ratio": wakeups_per_s / optimum_per_s,
        "deadline_miss_frac": misses / consumed,
        "p99_latency_ms": p99_s * 1e3,
    }


class Workload:
    """One workload; README.md says why each exists."""

    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def phases(self) -> List[Phase]:
        raise NotImplementedError

    def config(self) -> dict:
        """What the config digest covers."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what setup created (files under the work dir)."""


class CellWorkload(Workload):
    """Fig. 9 cells through ``run_multi``: ``(impl, pairs)``, buffer 25."""

    cells: Tuple[Tuple[str, int], ...] = ()

    def __init__(self, seed: int, workdir: Path, params: Optional[StandardParams] = None) -> None:
        super().__init__(seed, workdir)
        self.params = params or StandardParams(seed=seed)

    def config(self) -> dict:
        return {"params": dataclasses.asdict(self.params), "cells": self.cells}

    def setup(self) -> None:
        """Trace synthesis, the idle-power baseline, and rig + system
        construction for every cell. The two memos are emptied first,
        so each call pays the full set-up; the last call leaves them
        warm for the timed passes, as a figure run's first cell does."""
        p = self.params
        runner._TRACE_MEMO.clear()
        runner._BASELINE_CACHE.clear()
        base = runner.base_trace(p, 0)
        runner.baseline_power_w(p, 0)
        for impl, n in self.cells:
            rig = runner.Rig.build(p, 0)
            traces = runner.phase_shifted_traces(base, n)
            if impl == "PBPL":
                PBPLSystem(rig.env, rig.machine, traces, p.pbpl_config(),
                           consumer_cores=[runner.CONSUMER_CORE])
            else:
                MultiPairSystem(rig.env, rig.machine, impl, traces, p.pc_config(),
                                consumer_cores=[runner.CONSUMER_CORE])

    def phases(self) -> List[Phase]:
        return [
            Phase(f"{impl}x{n}", self._runner(impl, n), self._check)
            for impl, n in self.cells
        ]

    def _runner(self, impl: str, n: int):
        p = self.params

        def run():
            with captured_systems() as started:
                metrics = runner.run_multi(impl, n, p)
            traces = runner.phase_shifted_traces(runner.base_trace(p, 0), n)
            best = oracle.optimal_wakeups(traces, p.max_response_latency_s, p.buffer_size)
            return metrics, started, best

        return run

    def _check(self, out) -> PhaseResult:
        metrics, started, best = out
        (system,) = started
        stats = system.aggregate_stats()
        d = self.params.duration_s
        layer = {}
        if metrics.implementation == "PBPL":
            layer = {
                "scheduled": metrics.scheduled_wakeups,
                "batch_wakeups": metrics.total_batch_wakeups,
            }
        return PhaseResult(
            digest=_digest(dataclasses.asdict(metrics), best.wakeups),
            checks=[_conservation(system, stats), _pool_invariant(system)],
            events=system.env.events_processed,
            model=_model(metrics.core_wakeups_per_s, metrics.power_true_w,
                         best.wakeups / d, metrics.deadline_misses, metrics.consumed,
                         metrics.p99_latency_s),
            layer=layer,
        )


class PbplFig9(CellWorkload):
    """Where ``core``, ``buffers`` and ``metrics`` carry the most load."""

    name = "pbpl-fig9"
    cells = (("PBPL", 5), ("PBPL", 10))


class BlockingFig9(CellWorkload):
    """``core`` idle; per-item wakeups load ``sim``, ``cpu`` and ``power``."""

    name = "blocking-fig9"
    cells = (("Mutex", 5), ("BP", 5))


class InstrumentedPbpl(Workload):
    """``record_run`` with a live registry, then the read-side exports."""

    name = "instrumented-pbpl"
    n_consumers = 5
    duration_s = 2.0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.params = StandardParams(duration_s=self.duration_s, seed=seed)
        self._run = None

    def config(self) -> dict:
        return {
            "params": dataclasses.asdict(self.params),
            "cells": [["PBPL", "webserver", self.n_consumers]],
        }

    def setup(self) -> None:
        """The idle-power baseline the power metric is relative to, and
        the construction of one fully instrumented PBPL rig."""
        p = self.params
        runner._TRACE_MEMO.clear()
        runner._BASELINE_CACHE.clear()
        runner.baseline_power_w(p, 0)
        rig = runner.Rig.build(p, 0)
        traces = runner.phase_shifted_traces(runner.base_trace(p, 0), self.n_consumers)
        PBPLSystem(rig.env, rig.machine, traces, p.pbpl_config(),
                   consumer_cores=[runner.CONSUMER_CORE],
                   tracer=trace.Tracer(rig.env), metrics=telemetry.MetricsRegistry())

    def phases(self) -> List[Phase]:
        return [Phase("record", self._record, self._check_record),
                Phase("export", self._export, self._check_export)]

    def _record(self):
        with captured_systems() as started:
            run = trace.record_run(
                "PBPL", "webserver", n_consumers=self.n_consumers,
                duration_s=self.duration_s, seed=self.seed,
                metrics=telemetry.MetricsRegistry(),
            )
        self._run = run
        return run, started

    def _export(self):
        run = self._run
        chrome = trace.to_chrome_json(run.tracer)
        errors = trace.validate_chrome_trace(chrome)
        snapshot = run.metrics.snapshot()
        openmetrics = telemetry.to_openmetrics(snapshot)
        drift_j = trace.reconcile(trace.TraceQuery(run.tracer), run.ledger_total_j)
        checks = (
            telemetry.reconcile_counters(snapshot, run.stats)
            + telemetry.reconcile_energy(snapshot, run.ledger_total_j, tol_j=ENERGY_TOL_J)
            + telemetry.reconcile_core_wakeups(
                snapshot, runner.CONSUMER_CORE, run.consumer_core_wakeups)
        )
        return chrome, errors, openmetrics, drift_j, checks

    def _check_record(self, out) -> PhaseResult:
        run, started = out
        (system,) = started
        stats = run.stats
        p = self.params
        traces = [c.trace for c in system.consumers]
        best = oracle.optimal_wakeups(traces, p.max_response_latency_s, p.buffer_size)
        _, base_true_w = runner.baseline_power_w(p, 0)
        return PhaseResult(
            digest=_digest(stats.produced, stats.consumed, stats.scheduled_wakeups,
                           stats.overflow_wakeups, stats.items_shed, stats.deadline_misses,
                           run.ledger_total_j, run.consumer_core_wakeups, len(run.tracer)),
            checks=[_conservation(system, stats), _pool_invariant(system)],
            events=system.env.events_processed,
            model=_model(run.consumer_core_wakeups / p.duration_s,
                         run.ledger_total_j / p.duration_s - base_true_w,
                         best.wakeups / p.duration_s, stats.deadline_misses,
                         stats.consumed, stats.latency_percentile(99)),
            layer={"scheduled": stats.scheduled_wakeups,
                   "batch_wakeups": stats.scheduled_wakeups + stats.overflow_wakeups},
        )

    def _check_export(self, out) -> PhaseResult:
        chrome, errors, openmetrics, drift_j, checks = out
        results = [
            ("validate_chrome_trace finds no errors", not errors, "; ".join(errors[:3])),
            ("trace energy == ledger within 1e-9 J", drift_j <= ENERGY_TOL_J, f"{drift_j!r} J"),
        ]
        advisories = []
        for c in checks:
            detail = f"{c.metric!r} vs {c.reference!r}"
            if c.name in KNOWN_CUTOFF_DRIFT:
                if not c.ok:
                    advisories.append(f"{c.name} ({detail})")
            else:
                results.append((c.name, c.ok, detail))
        return PhaseResult(digest=_digest(chrome, openmetrics), checks=results, events=0,
                           advisories=advisories)


class LintColdWarm(Workload):
    """``analyze`` over a generated corpus: cold into an empty cache,
    then warm from it."""

    name = "lint-cold-warm"

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.root: Optional[Path] = None
        self.sources: Dict[str, str] = {}
        self.planted: List[corpus.Planted] = []
        self._cache_dir: Optional[Path] = None

    def config(self) -> dict:
        return {"corpus": {"filler": corpus.N_FILLER, "det005": corpus.N_DET005,
                           "sched001": corpus.N_SCHED001, "seed": self.seed}}

    def setup(self) -> None:
        """Generate the corpus sources (in memory)."""
        self.sources, self.planted = corpus.generate(self.seed)

    def close(self) -> None:
        for path in (self.root, self._cache_dir):
            if path is not None:
                shutil.rmtree(path, ignore_errors=True)
        self.root = self._cache_dir = None

    def phases(self) -> List[Phase]:
        """Write the generated corpus to disk once, then the phases.

        Writing is left out of the timed set-up: on a shared disk its
        time follows other tenants' write-back, not this program."""
        if self.root is None:
            self.root = Path(tempfile.mkdtemp(prefix="corpus-", dir=self.workdir))
            corpus.write(self.root, self.sources)
        return [Phase("cold", self._cold, self._check_cold),
                Phase("warm", self._warm, self._check_warm)]

    def _cold(self):
        if self._cache_dir is not None:
            shutil.rmtree(self._cache_dir, ignore_errors=True)
        self._cache_dir = Path(tempfile.mkdtemp(prefix="lintcache-", dir=self.workdir))
        return lint_engine.analyze([self.root], cache=lint_cache.LintCache(self._cache_dir))

    def _warm(self):
        return lint_engine.analyze([self.root], cache=lint_cache.LintCache(self._cache_dir))

    def _found(self, result) -> List[corpus.Planted]:
        return sorted(
            (Path(f.path).relative_to(self.root).as_posix(), f.line, f.code)
            for f in result.findings
        )

    def _check(self, result, hits_expected: bool) -> PhaseResult:
        found = self._found(result)
        files = result.stats["files"]
        hits = result.stats["cache_hits"]
        checks = [
            ("every planted hazard reported, nothing else", found == self.planted,
             f"missing {sorted(set(self.planted) - set(found))[:3]} "
             f"extra {sorted(set(found) - set(self.planted))[:3]}"),
            ("no unreadable or unparseable files", not result.errors, "; ".join(result.errors[:3])),
            ("cache hits match pass kind", hits == (files if hits_expected else 0),
             f"{hits} hits / {files} files"),
        ]
        # The hit share is a property of the warm pass (the cold one
        # starts from an empty cache by construction).
        layer = {"cache_hits": hits, "cache_lookups": files} if hits_expected else {}
        return PhaseResult(digest=_digest(found, files), checks=checks, events=files,
                           layer=layer)

    def _check_cold(self, result) -> PhaseResult:
        return self._check(result, hits_expected=False)

    def _check_warm(self, result) -> PhaseResult:
        return self._check(result, hits_expected=True)


WORKLOADS = {w.name: w for w in (PbplFig9, BlockingFig9, InstrumentedPbpl, LintColdWarm)}
