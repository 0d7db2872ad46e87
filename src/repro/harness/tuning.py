"""Slot-size auto-tuning: finding the paper's "appropriately sized Δ".

The slot-size ablation shows a U-shaped power curve in Δ: too fine and
greedy latching over-fires, too coarse and overflows take over. The
knee depends on the workload (roughly where a slot's worth of arrivals
fits comfortably in the base buffer), so a downstream user deploying
PBPL on their own traffic needs a tuner, not a constant.

:func:`suggest_slot_size` runs short PBPL probes across candidate slot
sizes against the user's parameters and returns the measured knee, with
the full probe table for inspection. Probes honour the latency bound:
candidates above ``max_response_latency_s`` are skipped (Δ > L would
violate the paper's §V-A rule).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.harness.grid import CellSpec, run_cells
from repro.harness.params import StandardParams
from repro.harness.tables import render_table
from repro.metrics.run import RunMetrics

#: Default candidate grid, as fractions of the max response latency.
DEFAULT_FRACTIONS = (1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0)


@dataclass(frozen=True)
class ProbePoint:
    slot_size_s: float
    power_w: float
    core_wakeups_per_s: float
    overflow_share: float
    deadline_misses: int


@dataclass(frozen=True)
class TuningResult:
    best_slot_size_s: float
    probes: Tuple[ProbePoint, ...]
    n_consumers: int
    #: Every probe run, candidate by candidate.
    runs: Tuple[RunMetrics, ...] = ()

    def render(self) -> str:
        rows = [
            (
                f"{p.slot_size_s * 1000:g} ms"
                + (" ◀ best" if p.slot_size_s == self.best_slot_size_s else ""),
                f"{p.power_w * 1000:.1f}",
                f"{p.core_wakeups_per_s:.0f}",
                f"{p.overflow_share * 100:.0f}%",
                f"{p.deadline_misses}",
            )
            for p in self.probes
        ]
        return render_table(
            ["slot size Δ", "power mW", "wakeups/s", "overflow share", "misses"],
            rows,
            title=f"Slot-size tuning ({self.n_consumers} consumers)",
        )


def suggest_slot_size(
    params: StandardParams,
    candidates_s: Optional[Sequence[float]] = None,
    n_consumers: int = 5,
    probe_replicates: int = 1,
) -> TuningResult:
    """Probe candidate slot sizes and return the measured power knee."""
    if candidates_s is None:
        candidates_s = [
            f * params.max_response_latency_s for f in DEFAULT_FRACTIONS
        ]
    candidates = sorted(
        {c for c in candidates_s if 0 < c <= params.max_response_latency_s}
    )
    if not candidates:
        raise ValueError(
            "no admissible candidates (must be in (0, max_response_latency])"
        )
    probe_params = replace(params, replicates=probe_replicates)
    specs = [
        CellSpec("PBPL", n_consumers, pbpl_overrides=(("slot_size_s", slot),))
        for slot in candidates
    ]
    cells = run_cells(probe_params, specs)
    probes: List[ProbePoint] = []
    for slot, runs in zip(candidates, cells):
        power = sum(r.power_w for r in runs) / len(runs)
        wakeups = sum(r.core_wakeups_per_s for r in runs) / len(runs)
        total_batch = sum(r.total_batch_wakeups for r in runs)
        overflow = sum(r.overflow_wakeups for r in runs)
        probes.append(
            ProbePoint(
                slot_size_s=slot,
                power_w=power,
                core_wakeups_per_s=wakeups,
                overflow_share=overflow / total_batch if total_batch else 0.0,
                deadline_misses=sum(r.deadline_misses for r in runs),
            )
        )
    best = min(probes, key=lambda p: p.power_w)
    return TuningResult(
        best_slot_size_s=best.slot_size_s,
        probes=tuple(probes),
        n_consumers=n_consumers,
        runs=tuple(run for cell in cells for run in cell),
    )
