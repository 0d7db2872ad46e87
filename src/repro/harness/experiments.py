"""One function per paper figure/table: run, summarise, render.

Each function is a view over :func:`~repro.harness.grid.run_cells`: it
names the cells its figure shows and asks for all of them in one call.
Every function returns a result object holding the raw per-replicate
:class:`~repro.metrics.run.RunMetrics`, replicate summaries, and a
``render()`` producing the text analogue of the paper's figure, plus
the derived comparisons the paper quotes in prose (percent reductions,
correlations, the significance test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.grid import CellSpec, run_cells
from repro.harness.params import StandardParams
from repro.harness.runner import MULTI_IMPLEMENTATIONS, STUDY_IMPLEMENTATIONS
from repro.harness.tables import render_table
from repro.metrics.run import RunMetrics, Summary, summarise
from repro.metrics.stats import (
    SlopeTest,
    pearson,
    percent_change,
    wakeup_power_significance,
)


# ---------------------------------------------------------------------------
# Figures 3 & 4 — the single producer-consumer power profile study (§III)
# ---------------------------------------------------------------------------


@dataclass
class ProfileStudyResult:
    """Figures 3 and 4 plus the §III-C correlation analysis."""

    params: StandardParams
    runs: List[RunMetrics]
    summaries: Dict[str, Summary]
    #: Correlation of wakeups/s with power across all 7 implementations.
    corr_wakeups_power_all: float
    #: Same, over the five blocking implementations only (paper: +74 %).
    corr_wakeups_power_blocking: float
    #: Usage↔power correlation over the blocking five (paper: +12 %).
    corr_usage_power_blocking: float
    #: The H0 test: wakeups affect power (paper: significant at 99 %).
    significance: SlopeTest

    def power_reduction_pct(self, frm: str, to: str) -> float:
        """Percent power change going from ``frm`` to ``to``."""
        return percent_change(
            self.summaries[frm].mean("power_w"), self.summaries[to].mean("power_w")
        )

    def render(self) -> str:
        rows = []
        for name in STUDY_IMPLEMENTATIONS:
            s = self.summaries[name]
            rows.append(
                (
                    name,
                    f"{s['wakeups_per_s'].mean:.1f} ± {s['wakeups_per_s'].half_width:.1f}",
                    f"{s['usage_ms_per_s'].mean:.1f} ± {s['usage_ms_per_s'].half_width:.1f}",
                    f"{s['power_w'].mean * 1000:.1f} ± {s['power_w'].half_width * 1000:.1f}",
                )
            )
        table = render_table(
            ["impl", "wakeups/s (Fig.3)", "usage ms/s (Fig.3)", "power mW (Fig.4)"],
            rows,
            title="Figures 3 & 4 — single-pair power profile "
            f"({self.params.replicates} replicates, 95% CI)",
        )
        notes = [
            "",
            f"corr(wakeups, power), all 7:        {self.corr_wakeups_power_all * 100:+.1f}%"
            "   (paper: -79.6%)",
            f"corr(wakeups, power), blocking 5:   {self.corr_wakeups_power_blocking * 100:+.1f}%"
            "   (paper: +74%)",
            f"corr(usage, power), blocking 5:     {self.corr_usage_power_blocking * 100:+.1f}%"
            "   (paper: +12%, weak)",
            f"H0 'wakeups affect power': p = {self.significance.p_value:.2e} "
            f"→ {'accepted' if self.significance.significant(0.99) else 'NOT accepted'} "
            "at 99% (paper: accepted)",
            f"best batch impl vs BW power:  {self.power_reduction_pct('BW', 'SPBP'):+.1f}%"
            "   (paper: up to -80%)",
            f"SPBP vs Mutex power:          {self.power_reduction_pct('Mutex', 'SPBP'):+.1f}%"
            "   (paper: -33%)",
        ]
        return table + "\n" + "\n".join(notes)


def run_profile_study(
    params: Optional[StandardParams] = None, jobs: Optional[int] = None
) -> ProfileStudyResult:
    """Reproduce Figures 3 and 4 (and the §III-C statistics)."""
    params = params or StandardParams()
    specs = [CellSpec(name, n_consumers=1) for name in STUDY_IMPLEMENTATIONS]
    cells = run_cells(params, specs, jobs)
    runs = [run for cell in cells for run in cell]
    summaries = {
        name: summarise(cell) for name, cell in zip(STUDY_IMPLEMENTATIONS, cells)
    }
    blocking = ("Mutex", "Sem", "BP", "PBP", "SPBP")
    all_w = [summaries[n].mean("wakeups_per_s") for n in STUDY_IMPLEMENTATIONS]
    all_p = [summaries[n].mean("power_w") for n in STUDY_IMPLEMENTATIONS]
    blk_w = [summaries[n].mean("wakeups_per_s") for n in blocking]
    blk_p = [summaries[n].mean("power_w") for n in blocking]
    blk_u = [summaries[n].mean("usage_ms_per_s") for n in blocking]
    blocking_runs = [r for r in runs if r.implementation in blocking]
    significance = wakeup_power_significance(
        [r.wakeups_per_s for r in blocking_runs],
        [r.power_w for r in blocking_runs],
    )
    return ProfileStudyResult(
        params=params,
        runs=runs,
        summaries=summaries,
        corr_wakeups_power_all=pearson(all_w, all_p),
        corr_wakeups_power_blocking=pearson(blk_w, blk_p),
        corr_usage_power_blocking=pearson(blk_u, blk_p),
        significance=significance,
    )


# ---------------------------------------------------------------------------
# Figure 9 — 5 consumers, buffer 25 (§VI-C)
# ---------------------------------------------------------------------------


@dataclass
class MultiComparisonResult:
    """Figure 9 (and the per-cell machinery reused by Figures 10/11)."""

    params: StandardParams
    n_consumers: int
    buffer_size: int
    runs: List[RunMetrics]
    summaries: Dict[str, Summary]
    implementations: Tuple[str, ...] = MULTI_IMPLEMENTATIONS

    def reduction_pct(self, metric: str, frm: str, to: str) -> float:
        return percent_change(
            self.summaries[frm].mean(metric), self.summaries[to].mean(metric)
        )

    def render(self) -> str:
        rows = []
        for name in self.implementations:
            s = self.summaries[name]
            rows.append(
                (
                    name,
                    f"{s['core_wakeups_per_s'].mean:.0f} ± {s['core_wakeups_per_s'].half_width:.0f}",
                    f"{s['wakeups_per_s'].mean:.0f}",
                    f"{s['power_w'].mean * 1000:.1f} ± {s['power_w'].half_width * 1000:.1f}",
                )
            )
        # "wakeups/s" is the energy-relevant wakeup-event count (Eq. 4):
        # PowerTop attributes one timer event waking N threads of one
        # process to one wakeup, which is what the core count models;
        # per-thread scheduler wakeups are shown alongside.
        table = render_table(
            ["impl", "wakeups/s", "thread wakeups/s", "power mW"],
            rows,
            title=f"Figure 9 — {self.n_consumers} consumers, buffer "
            f"{self.buffer_size} ({self.params.replicates} replicates)",
        )
        notes = [""]
        if "Mutex" in self.summaries and "PBPL" in self.summaries:
            notes.append(
                f"PBPL vs Mutex: wakeups "
                f"{self.reduction_pct('core_wakeups_per_s', 'Mutex', 'PBPL'):+.1f}%"
                " (paper: -39.5%), power "
                f"{self.reduction_pct('power_w', 'Mutex', 'PBPL'):+.1f}% (paper: -20%)"
            )
        if "BP" in self.summaries and "PBPL" in self.summaries:
            notes.append(
                f"PBPL vs BP:    wakeups "
                f"{self.reduction_pct('core_wakeups_per_s', 'BP', 'PBPL'):+.1f}%"
                " (paper: -37.8%), power "
                f"{self.reduction_pct('power_w', 'BP', 'PBPL'):+.1f}% (paper: -7.4%)"
            )
        return table + "\n" + "\n".join(notes)


def run_multi_comparison(
    params: Optional[StandardParams] = None,
    n_consumers: int = 5,
    buffer_size: Optional[int] = None,
    implementations: Sequence[str] = MULTI_IMPLEMENTATIONS,
    jobs: Optional[int] = None,
) -> MultiComparisonResult:
    """Reproduce Figure 9 (or one cell of Figures 10/11)."""
    params = params or StandardParams()
    columns = [(n_consumers, buffer_size or params.buffer_size)]
    return _comparisons(params, columns, implementations, jobs)[0]


def _comparisons(
    params: StandardParams,
    columns: Sequence[Tuple[int, int]],
    implementations: Sequence[str],
    jobs: Optional[int],
) -> List[MultiComparisonResult]:
    """One comparison per ``(n_consumers, buffer_size)`` column, every
    column's cells fetched in one :func:`run_cells` call."""
    specs = [
        CellSpec(name, n_consumers, buf)
        for n_consumers, buf in columns
        for name in implementations
    ]
    cells = iter(run_cells(params, specs, jobs))
    results = []
    for n_consumers, buf in columns:
        group = [next(cells) for _ in implementations]
        results.append(
            MultiComparisonResult(
                params=params,
                n_consumers=n_consumers,
                buffer_size=buf,
                runs=[run for cell in group for run in cell],
                summaries={
                    name: summarise(cell)
                    for name, cell in zip(implementations, group)
                },
                implementations=tuple(implementations),
            )
        )
    return results


# ---------------------------------------------------------------------------
# Figure 10 — consumer-count sweep (§VI-C)
# ---------------------------------------------------------------------------


@dataclass
class ConsumerScalingResult:
    params: StandardParams
    counts: Tuple[int, ...]
    cells: Dict[int, MultiComparisonResult] = field(default_factory=dict)

    def improvement_over_mutex(self, n: int) -> float:
        """PBPL power reduction vs Mutex at ``n`` consumers (paper: the
        gap grows 7.5% → 20% → 30% across 2/5/10)."""
        return -self.cells[n].reduction_pct("power_w", "Mutex", "PBPL")

    def render(self) -> str:
        out = []
        power_rows = []
        wake_rows = []
        for name in MULTI_IMPLEMENTATIONS:
            power_rows.append(
                (f"{name} power mW",)
                + tuple(
                    f"{self.cells[n].summaries[name].mean('power_w') * 1000:.1f}"
                    for n in self.counts
                )
            )
            wake_rows.append(
                (f"{name} wakeups/s",)
                + tuple(
                    f"{self.cells[n].summaries[name].mean('core_wakeups_per_s'):.0f}"
                    for n in self.counts
                )
            )
        out.append(
            render_table(
                ["series"] + [f"{n} consumers" for n in self.counts],
                power_rows + wake_rows,
                title="Figure 10 — scaling the number of consumers "
                f"(buffer {self.params.buffer_size})",
            )
        )
        out.append("")
        for n in self.counts:
            out.append(
                f"PBPL power improvement over Mutex at {n} consumers: "
                f"{self.improvement_over_mutex(n):.1f}%"
            )
        out.append("(paper: 7.5% / 20% / 30% at 2 / 5 / 10 — the gap grows)")
        return "\n".join(out)


def run_consumer_scaling(
    params: Optional[StandardParams] = None,
    counts: Sequence[int] = (2, 5, 10),
    jobs: Optional[int] = None,
) -> ConsumerScalingResult:
    """Reproduce Figure 10."""
    params = params or StandardParams()
    columns = [(n, params.buffer_size) for n in counts]
    cells = _comparisons(params, columns, MULTI_IMPLEMENTATIONS, jobs)
    return ConsumerScalingResult(
        params=params, counts=tuple(counts), cells=dict(zip(counts, cells))
    )


# ---------------------------------------------------------------------------
# Figure 11 — buffer-size sweep, BP vs PBPL (§VI-C)
# ---------------------------------------------------------------------------


@dataclass
class BufferSweepResult:
    params: StandardParams
    sizes: Tuple[int, ...]
    n_consumers: int
    cells: Dict[int, MultiComparisonResult] = field(default_factory=dict)

    def gap_pct(self, size: int) -> float:
        """BP→PBPL power reduction at ``size`` (the paper's narrowing gap)."""
        return -self.cells[size].reduction_pct("power_w", "BP", "PBPL")

    def render(self) -> str:
        rows = []
        for name in ("BP", "PBPL"):
            rows.append(
                (f"{name} power mW",)
                + tuple(
                    f"{self.cells[b].summaries[name].mean('power_w') * 1000:.1f}"
                    for b in self.sizes
                )
            )
            rows.append(
                (f"{name} wakeups/s",)
                + tuple(
                    f"{self.cells[b].summaries[name].mean('core_wakeups_per_s'):.0f}"
                    for b in self.sizes
                )
            )
        table = render_table(
            ["series"] + [f"buffer {b}" for b in self.sizes],
            rows,
            title=f"Figure 11 — buffer-size sweep ({self.n_consumers} consumers)",
        )
        notes = ["", "PBPL power advantage over BP by buffer size:"]
        for b in self.sizes:
            notes.append(f"  buffer {b}: {self.gap_pct(b):+.1f}%")
        notes.append("(paper: both fall with size; the PBPL–BP gap narrows)")
        return table + "\n" + "\n".join(notes)


def run_buffer_sweep(
    params: Optional[StandardParams] = None,
    sizes: Sequence[int] = (25, 50, 100),
    n_consumers: int = 5,
    jobs: Optional[int] = None,
) -> BufferSweepResult:
    """Reproduce Figure 11."""
    params = params or StandardParams()
    columns = [(n_consumers, size) for size in sizes]
    cells = _comparisons(params, columns, ("BP", "PBPL"), jobs)
    return BufferSweepResult(
        params=params,
        sizes=tuple(sizes),
        n_consumers=n_consumers,
        cells=dict(zip(sizes, cells)),
    )


# ---------------------------------------------------------------------------
# "Table S1" — the §VI-C in-text wakeup accounting
# ---------------------------------------------------------------------------


@dataclass
class WakeupAccountingResult:
    params: StandardParams
    buffer_size: int
    n_consumers: int
    pbpl: Summary
    bp: Summary
    #: PBPL's replicates, then BP's.
    runs: List[RunMetrics] = field(default_factory=list)

    @property
    def pbpl_total_wakeups(self) -> float:
        return self.pbpl.mean("scheduled_wakeups") + self.pbpl.mean(
            "overflow_wakeups"
        )

    @property
    def total_reduction_pct(self) -> float:
        """PBPL total batch wakeups vs BP's (paper: -25%)."""
        return percent_change(
            self.bp.mean("overflow_wakeups"), self.pbpl_total_wakeups
        )

    @property
    def overflow_conversion_pct(self) -> float:
        """Share of BP's overflow wakeups PBPL turned into scheduled ones
        or removed (the paper reports 82.5%)."""
        bp_overflows = self.bp.mean("overflow_wakeups")
        if bp_overflows == 0:
            return 0.0
        return (1 - self.pbpl.mean("overflow_wakeups") / bp_overflows) * 100.0

    def render(self) -> str:
        rows = [
            (
                "PBPL",
                f"{self.pbpl.mean('scheduled_wakeups'):.0f}",
                f"{self.pbpl.mean('overflow_wakeups'):.0f}",
                f"{self.pbpl_total_wakeups:.0f}",
                f"{self.pbpl.mean('average_buffer_size'):.1f}",
            ),
            (
                "BP",
                "0",
                f"{self.bp.mean('overflow_wakeups'):.0f}",
                f"{self.bp.mean('overflow_wakeups'):.0f}",
                f"{self.bp.mean('average_buffer_size'):.1f}",
            ),
        ]
        table = render_table(
            ["impl", "scheduled", "overflow", "total", "avg buffer"],
            rows,
            title="§VI-C wakeup accounting — "
            f"{self.n_consumers} consumers, B0={self.buffer_size} "
            "(paper: PBPL 5160+1626 vs BP 9290; avg buffer 43/50)",
        )
        notes = [
            "",
            f"total wakeup reduction vs BP: {self.total_reduction_pct:+.1f}% (paper: -25%)",
            f"overflow conversion:          {self.overflow_conversion_pct:.1f}% (paper: 82.5%)",
            f"PBPL avg buffer / B0:         "
            f"{self.pbpl.mean('average_buffer_size') / self.buffer_size:.2f} (paper: 43/50 = 0.86)",
        ]
        return table + "\n" + "\n".join(notes)


def run_wakeup_accounting(
    params: Optional[StandardParams] = None,
    buffer_size: int = 50,
    n_consumers: int = 5,
    jobs: Optional[int] = None,
) -> WakeupAccountingResult:
    """Reproduce the §VI-C in-text scheduled/overflow wakeup numbers."""
    params = params or StandardParams()
    pbpl, bp = run_cells(
        params,
        [
            CellSpec("PBPL", n_consumers, buffer_size),
            CellSpec("BP", n_consumers, buffer_size),
        ],
        jobs,
    )
    return WakeupAccountingResult(
        params=params,
        buffer_size=buffer_size,
        n_consumers=n_consumers,
        pbpl=summarise(pbpl),
        bp=summarise(bp),
        runs=pbpl + bp,
    )
