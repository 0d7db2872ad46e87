"""One-command reproduction report: every figure, one document.

``build_full_report`` runs the complete evaluation — sanity checks,
Figures 3/4/9/10/11 and the §VI-C scalars — and assembles a single
markdown document with every text figure, parameters, and runtimes.
Exposed on the CLI as ``repro all --out REPORT.md``; a downstream user
gets the whole paper-vs-reproduction story from one invocation. Every
section is a view over :func:`~repro.harness.grid.run_cells`, so a cell
that several sections show is simulated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.harness import clock

from repro.harness.experiments import (
    run_buffer_sweep,
    run_consumer_scaling,
    run_multi_comparison,
    run_profile_study,
    run_wakeup_accounting,
)
from repro.harness.params import StandardParams
from repro.harness.sanity import run_sanity_checks, sanity_runs


@dataclass
class ReportSection:
    title: str
    body: str
    runtime_s: float


@dataclass
class FullReport:
    params: StandardParams
    sections: List[ReportSection] = field(default_factory=list)

    @property
    def total_runtime_s(self) -> float:
        return sum(s.runtime_s for s in self.sections)

    def render(self) -> str:
        lines = [
            "# Reproduction report — Power-efficient Multiple Producer-Consumer",
            "",
            "Generated by `repro all`. Paper: Medhat, Bonakdarpour,",
            "Fischmeister; IPDPS 2014 (DOI 10.1109/IPDPS.2014.75).",
            "",
            "## Parameters",
            "",
            "```",
            f"duration per run : {self.params.duration_s:g} s (simulated)",
            f"replicates       : {self.params.replicates}",
            f"seed             : {self.params.seed}",
            f"mean rate        : {self.params.mean_rate_per_s:g} items/s/producer",
            f"buffer (default) : {self.params.buffer_size}",
            f"slot size Δ      : {self.params.slot_size_s * 1000:g} ms",
            f"max latency L    : {self.params.max_response_latency_s * 1000:g} ms",
            "```",
            "",
        ]
        for section in self.sections:
            lines += [
                f"## {section.title}",
                "",
                "```",
                section.body,
                "```",
                "",
                f"*({section.runtime_s:.1f}s wall-clock)*",
                "",
            ]
        lines.append(
            f"Total generation time: {self.total_runtime_s:.1f}s wall-clock."
        )
        return "\n".join(lines)


def build_full_report(
    params: Optional[StandardParams] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FullReport:
    """Run every experiment and assemble the report."""
    params = params or StandardParams()
    report = FullReport(params=params)

    def section(title: str, producer: Callable[[], str]) -> None:
        if progress is not None:
            progress(f"running: {title}")
        start = clock.perf_counter()
        body = producer()
        report.sections.append(
            ReportSection(title, body, clock.perf_counter() - start)
        )

    section(
        "Sanity checks (paper §III-C1)",
        lambda: run_sanity_checks(sanity_runs(params), params).render(),
    )
    section("Figures 3 & 4 — the §III study", lambda: run_profile_study(params).render())
    section("Figure 9 — five consumers", lambda: run_multi_comparison(params).render())
    section(
        "Figure 10 — consumer scaling",
        lambda: run_consumer_scaling(params).render(),
    )
    section("Figure 11 — buffer sweep", lambda: run_buffer_sweep(params).render())
    section(
        "§VI-C wakeup accounting",
        lambda: (
            run_wakeup_accounting(params, buffer_size=25).render()
            + "\n\n"
            + run_wakeup_accounting(params, buffer_size=50).render()
        ),
    )
    return report
