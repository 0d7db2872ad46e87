"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

Each workload runs once per mode in this process with ``--seconds 0``,
which means the minimum number of passes. The tests then check the
benchmark's own promises: metric names match ``BENCHMARK.json``, every
check passes, self times add up, the layers contrast the way the
workloads were chosen to show, the default seed reproduces the figure
suite, and the span wrappers leave nothing behind.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.harness.params import StandardParams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def results():
    return {
        (name, traced): run.run_one(name, workloads.DEFAULT_SEED, 0, traced)
        for name in workloads.WORKLOADS
        for traced in (False, True)
    }


def test_spec_lists_the_workloads_run_py_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True])
def test_outputs_name_exactly_the_spec_metrics(results, traced):
    section = "per_layer" if traced else "end_to_end"
    wanted = [m["name"] for m in SPEC[section]]
    for name in workloads.WORKLOADS:
        metrics = results[name, traced]["metrics"]
        assert list(metrics) == wanted, name
        for entry in metrics.values():
            assert math.isfinite(entry["value"])
        if not traced:
            assert all(entry["value"] > 0 for entry in metrics.values()), name


def test_every_check_passes_on_every_workload(results):
    for key, result in results.items():
        assert result["correct"] and result["failed"] == 0, (key, result["detail"]["problems"])
        assert result["attempted"] >= 2


def test_self_times_add_up_to_the_traced_wall(results):
    for name in workloads.WORKLOADS:
        result = results[name, True]
        values = {k: v["value"] for k, v in result["metrics"].items()}
        selfs = [values[f"{layer}.self_s"] for layer in spans.LAYERS]
        assert min(selfs) >= 0.0
        assert values["unattributed.self_s"] >= 0.0
        wall = result["detail"]["traced_wall_s"]
        # The layer totals are accumulated independently of the
        # outermost-span total that unattributed time is derived from.
        assert sum(selfs) == pytest.approx(result["detail"]["span_root_s"], rel=1e-9)
        assert sum(selfs) + values["unattributed.self_s"] == pytest.approx(wall, rel=1e-9)
        assert values["unattributed.self_s"] < 0.05 * wall, name


def test_traced_run_shows_the_layer_contrasts(results):
    def values(name):
        return {k: v["value"] for k, v in results[name, True]["metrics"].items()}

    pbpl, blocking = values("pbpl-fig9"), values("blocking-fig9")
    instrumented, lint = values("instrumented-pbpl"), values("lint-cold-warm")
    for metric in ("core.self_s", "core.reserve_calls", "core.latch_share",
                   "core.scheduled_share", "buffers.resize_calls"):
        assert blocking[metric] == 0, metric
        assert pbpl[metric] > 0, metric

    def share(v, metric):
        return v[metric] / results_wall(v)

    def results_wall(v):
        return sum(v[f"{layer}.self_s"] for layer in spans.LAYERS) + v["unattributed.self_s"]

    assert share(pbpl, "metrics.self_s") > share(blocking, "metrics.self_s")
    assert share(blocking, "sim.self_s") > share(pbpl, "sim.self_s")
    assert blocking["cpu.acquire_calls"] > pbpl["cpu.acquire_calls"]
    for metric in ("telemetry.self_s", "telemetry.counter_incs", "trace.self_s",
                   "trace.events", "trace.export_s"):
        assert instrumented[metric] > 0, metric
        assert pbpl[metric] == blocking[metric] == lint[metric] == 0, metric
    assert instrumented["power.integrators"] == 4
    assert pbpl["power.integrators"] == blocking["power.integrators"] == 2
    for metric in ("analysis.self_s", "analysis.facts_s", "analysis.project_s",
                   "analysis.cache_hit_share"):
        assert lint[metric] > 0, metric
        assert pbpl[metric] == blocking[metric] == instrumented[metric] == 0, metric
    assert lint["analysis.cache_hit_share"] == 1.0
    assert lint["metrics.self_s"] == lint["sim.events"] == 0


def _cell(workload, name):
    (phase,) = [p for p in workload.phases() if p.name == name]
    return phase.check(phase.run())


def test_default_seed_reproduces_the_figure_suite(tmp_path):
    workload = workloads.PbplFig9(workloads.DEFAULT_SEED, tmp_path)
    workload.setup()
    result = _cell(workload, "PBPLx5")
    assert result.ok
    assert result.model["wakeups_per_s"] == 296.25
    assert result.model["wakeups_per_s"] / result.model["oracle_ratio"] == pytest.approx(155.25)
    assert round(result.model["oracle_ratio"], 2) == 1.91


def test_held_out_seed_moves_the_model_not_correctness(tmp_path):
    models = []
    for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
        workload = workloads.PbplFig9(seed, tmp_path)
        workload.setup()
        result = _cell(workload, "PBPLx5")
        assert result.ok, result.checks
        models.append(result.model)
    assert all(models[0][k] != models[1][k] for k in workloads.MODEL_KEYS if k != "deadline_miss_frac")


_FRESH_DIGEST = """
import sys
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
from repro.harness.params import StandardParams
w = workloads.PbplFig9(2014, Path({workdir!r}), StandardParams(duration_s=0.5))
w.setup()
print(" ".join(p.check(p.run()).digest for p in w.phases()))
"""


def test_wrappers_leave_no_trace(tmp_path):
    """A traced pass, then a plain pass in the same process: the plain
    pass runs no wrapper code and matches a fresh process's digests."""
    workload = workloads.PbplFig9(2014, tmp_path, StandardParams(duration_s=0.5))
    workload.setup()
    tracer = spans.LayerTracer()
    _, traced = run.run_pass(workload.phases(), tracer)
    assert tracer.leftovers() == []

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _, plain = run.run_pass(workload.phases())
    finally:
        sys.setprofile(None)
    assert not seen & tracer.wrapper_codes

    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH_DIGEST.format(
            src=str(ROOT / "src"), bench=str(BENCH_DIR), workdir=str(tmp_path))],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.split()
    assert [r.digest for r in plain.values()] == fresh
    assert [r.digest for r in traced.values()] == fresh


def test_missing_source_tree_exits_nonzero_without_a_result():
    with tempfile.TemporaryDirectory() as tmp:
        bench = Path(tmp) / "perfbench"
        bench.mkdir()
        (bench / "run.py").write_text((BENCH_DIR / "run.py").read_text())
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "pbpl-fig9", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
