"""The paper's experimental sanity checks (§III-C1), as a runnable suite.

Before trusting its rig, the paper verifies four things:

1. measured voltages are reasonable for the board and shunt;
2. a busy-wait program on *both* cores bounds every experiment's power
   from above;
3. an idle system (kernel tasks only) bounds every experiment from
   below;
4. confidence intervals are tight enough that conclusions aren't
   outlier-driven.

``run_sanity_checks`` performs the same four against the simulated rig
and a set of experiment runs; ``sanity_runs`` is that set for the CLI
(``repro sanity``) and the full report (``repro all``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.harness.grid import CellSpec, run_cells
from repro.harness.params import StandardParams
from repro.harness.runner import Rig, baseline_power_w
from repro.metrics.run import RunMetrics


@dataclass(frozen=True)
class SanityCheck:
    """One check's outcome."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail}"


@dataclass(frozen=True)
class SanityReport:
    checks: List[SanityCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        header = "Sanity checks (paper §III-C1)"
        return "\n".join([header, "-" * len(header)] + [str(c) for c in self.checks])

    def to_json(self) -> str:
        """Machine-readable dump for CI gates (``repro sanity --json``)."""
        import json

        return json.dumps(
            {
                "all_passed": self.all_passed,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in self.checks
                ],
            },
            indent=2,
            sort_keys=True,
        )

    @property
    def failures(self) -> List[SanityCheck]:
        return [c for c in self.checks if not c.passed]


def dual_spin_ceiling_w(params: StandardParams, replicate: int = 0) -> float:
    """Power of busy-wait loops on *both* cores — the paper's ceiling
    experiment — measured above the idle baseline."""
    rig = Rig.build(params, replicate)

    def spinner(env, core, owner):
        hold = yield from core.acquire(owner, after_block=False)
        never = env.event()
        yield from hold.busy_until(never, reeval_s=0.05)

    for core in rig.machine.cores:
        rig.env.process(
            spinner(rig.env, core, f"spin-{core.core_id}"),
            name=f"spin-{core.core_id}",
        )
    rig.env.run(until=params.duration_s)
    measured, _true = rig.measure_power_w(params.duration_s)
    base_measured, _ = baseline_power_w(params, replicate)
    return measured - base_measured


def sanity_runs(params: StandardParams) -> List[RunMetrics]:
    """Every replicate of the one-pair Mutex, BP and SPBP cells, in that
    order: the runs ``repro sanity`` and ``repro all`` check."""
    specs = [CellSpec(name, n_consumers=1) for name in ("Mutex", "BP", "SPBP")]
    return [run for cell in run_cells(params, specs) for run in cell]


def run_sanity_checks(
    runs: Sequence[RunMetrics],
    params: Optional[StandardParams] = None,
    replicate: int = 0,
) -> SanityReport:
    """Validate a set of experiment runs against the paper's four checks."""
    params = params or StandardParams()
    checks: List[SanityCheck] = []

    # 1. Voltages reasonable: the shunt drop implied by the biggest
    #    power draw stays far below the supply rail (the board boots).
    rig = Rig.build(params, replicate)
    supply = rig.model.supply_voltage_v
    worst_w = max((r.power_w for r in runs), default=0.0) + baseline_power_w(
        params, replicate
    )[0]
    v_drop = worst_w * rig.scope.shunt_ohm / supply
    ok = 0 < v_drop < 0.05 * supply
    checks.append(
        SanityCheck(
            "voltage drop reasonable",
            ok,
            f"max drop {v_drop * 1000:.2f} mV across {rig.scope.shunt_ohm} Ω "
            f"on a {supply:g} V rail",
        )
    )

    # 2. Nothing exceeds the dual-core busy-wait ceiling.
    ceiling = dual_spin_ceiling_w(params, replicate)
    worst_extra = max((r.power_w for r in runs), default=0.0)
    ok = worst_extra < ceiling
    checks.append(
        SanityCheck(
            "dual-spin ceiling",
            ok,
            f"worst experiment {worst_extra * 1000:.0f} mW < "
            f"busy-both-cores {ceiling * 1000:.0f} mW",
        )
    )

    # 3. Everything exceeds the idle (kernel-only) floor.
    ok = all(r.power_w > 0 for r in runs)
    floor_min = min((r.power_w for r in runs), default=0.0)
    checks.append(
        SanityCheck(
            "idle floor",
            ok,
            f"every experiment above the kernel-only baseline "
            f"(min extra {floor_min * 1000:.1f} mW)",
        )
    )

    # 4. Replicate spread small relative to the means (no outlier-driven
    #    conclusions). Paper: 95% CIs reported for all measurements.
    by_cell: dict = {}
    for r in runs:
        by_cell.setdefault((r.implementation, r.n_consumers, r.buffer_size), []).append(
            r.power_w
        )
    worst_rel = 0.0
    for values in by_cell.values():
        if len(values) >= 2:
            mean = sum(values) / len(values)
            if mean > 0:
                spread = (max(values) - min(values)) / mean
                worst_rel = max(worst_rel, spread)
    ok = worst_rel < 0.5
    checks.append(
        SanityCheck(
            "replicate stability",
            ok,
            f"worst replicate spread {worst_rel * 100:.1f}% of the cell mean",
        )
    )

    return SanityReport(checks)
