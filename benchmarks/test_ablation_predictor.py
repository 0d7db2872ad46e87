"""Ablation — rate predictor choice (paper §V-C + §VIII future work).

The paper chose a moving average "for the simplicity of its
calculation" and names a Kalman filter as future work for "better
accuracy". This bench compares MA, EWMA and Kalman inside the full
PBPL system. The honest expected outcome: all three land close —
PBPL's slot grid and the resize margin absorb most prediction error —
with differences showing up in overflow wakeups.
"""

from repro.harness import CellSpec, render_table, run_cells
from repro.metrics import summarise

PREDICTORS = ("moving-average", "ewma", "kalman")


def run_variant(params, predictor):
    spec = CellSpec.make("PBPL", pbpl_overrides={"predictor": predictor})
    (runs,) = run_cells(params, [spec])
    return summarise(runs)


def test_ablation_predictor(benchmark, bench_params, save_result):
    results = benchmark.pedantic(
        lambda: {p: run_variant(bench_params, p) for p in PREDICTORS},
        rounds=1,
        iterations=1,
    )
    rows = [
        (
            name,
            f"{s.mean('scheduled_wakeups'):.0f}",
            f"{s.mean('overflow_wakeups'):.0f}",
            f"{s.mean('core_wakeups_per_s'):.0f}",
            f"{s.mean('power_w') * 1000:.1f}",
            f"{s.mean('deadline_misses'):.0f}",
        )
        for name, s in results.items()
    ]
    table = render_table(
        ["predictor", "sched", "overflow", "core wakeups/s", "power mW", "misses"],
        rows,
        title="Ablation — rate predictor (5 consumers, buffer 25)",
    )
    save_result("ablation_predictor", table)

    powers = {p: s.mean("power_w") for p, s in results.items()}
    # No predictor catastrophically worse: within 15% of the best.
    best = min(powers.values())
    for p, v in powers.items():
        assert v < best * 1.15, p
    # Every variant keeps the system functional (items flow, wakes sane).
    for p, s in results.items():
        assert s.mean("consumed") > 0.95 * s.mean("produced") - 200, p
