"""Tests for the one cell graph: ``run_cells`` and its in-process memo."""

from dataclasses import dataclass

import pytest

from repro.harness import (
    CellSpec,
    StandardParams,
    grid,
    run_buffer_sweep,
    run_cells,
    run_consumer_scaling,
    run_multi_comparison,
    run_wakeup_accounting,
)


@pytest.fixture
def params():
    return StandardParams(duration_s=0.6, replicates=1, seed=99)


@pytest.fixture
def simulated(monkeypatch):
    """Every ``(implementation, consumers, buffer, replicate)`` that
    reaches ``run_multi`` — i.e. every memo miss — in call order."""
    calls = []
    real = grid.run_multi

    def counting(name, n_consumers, params, replicate=0, **kwargs):
        calls.append((name, n_consumers, kwargs.get("buffer_size"), replicate))
        return real(name, n_consumers, params, replicate, **kwargs)

    monkeypatch.setattr(grid, "run_multi", counting)
    return calls


@dataclass
class SlowServiceParams(StandardParams):
    """Standard fields, but every baseline item costs 30 µs to serve."""

    def pc_config(self, buffer_size=None):
        config = super().pc_config(buffer_size)
        config.service_time_s = 30e-6
        return config


def test_cell_spec_make_normalises_overrides():
    spec = CellSpec.make("PBPL", pbpl_overrides={"resize_margin": 0.3})
    assert spec.pbpl_overrides == (("resize_margin", 0.3),)
    assert spec.overrides_dict() == {"resize_margin": 0.3}
    assert hash(spec)  # hashable → usable as dict key


def test_grid_runs_without_cache(simulated):
    """An empty memo simulates every replicate of the cell, once."""
    params = StandardParams(duration_s=0.6, replicates=2, seed=99)
    (runs,) = run_cells(params, [CellSpec.make("BP", n_consumers=2)], jobs=1)
    assert [r.replicate for r in runs] == [0, 1]
    assert simulated == [("BP", 2, None, 0), ("BP", 2, None, 1)]


def test_run_cells_returns_replicates_in_spec_order(simulated):
    params = StandardParams(duration_s=0.6, replicates=2, seed=99)
    specs = [
        CellSpec.make("BP", n_consumers=2),
        CellSpec.make("Sem", n_consumers=2),
        CellSpec.make("BP", n_consumers=2, buffer_size=25),
    ]
    cells = run_cells(params, specs, jobs=1)
    assert [[(r.implementation, r.replicate) for r in c] for c in cells] == [
        [("BP", 0), ("BP", 1)],
        [("Sem", 0), ("Sem", 1)],
        [("BP", 0), ("BP", 1)],
    ]
    # buffer None resolves to params.buffer_size: the third spec is the
    # first cell, simulated once within the one call.
    assert len(simulated) == 4
    assert cells[2] == cells[0]


def test_changed_params_miss_the_cache(params, simulated):
    spec = CellSpec.make("BP", n_consumers=2)
    run_cells(params, [spec], jobs=1)
    run_cells(params, [spec], jobs=1)
    assert len(simulated) == 1
    other = StandardParams(duration_s=0.6, replicates=1, seed=100)
    (runs,) = run_cells(other, [spec], jobs=1)
    assert len(simulated) == 2
    assert runs[0].produced != run_cells(params, [spec], jobs=1)[0][0].produced


def test_pbpl_overrides_part_of_key(params, simulated):
    run_cells(params, [CellSpec.make("PBPL", n_consumers=2)], jobs=1)
    run_cells(
        params,
        [CellSpec.make("PBPL", n_consumers=2, pbpl_overrides={"resize_margin": 0.9})],
        jobs=1,
    )
    assert len(simulated) == 2


@pytest.mark.parametrize(
    "overrides",
    [
        {"enable_latching": True},
        {"predictor": "moving-average"},
        {"slot_size_s": 5.0 * 1e-3},
    ],
)
def test_default_valued_override_is_served_from_the_default_cell(
    params, simulated, overrides
):
    (default,) = run_cells(params, [CellSpec.make("PBPL", n_consumers=2)], jobs=1)
    (same,) = run_cells(
        params,
        [CellSpec.make("PBPL", n_consumers=2, pbpl_overrides=overrides)],
        jobs=1,
    )
    assert len(simulated) == 1
    assert same == default


def test_params_subclass_with_its_own_pc_config_misses(params, simulated):
    spec = CellSpec.make("BP", n_consumers=2)
    (base,) = run_cells(params, [spec], jobs=1)
    slow = SlowServiceParams(duration_s=0.6, replicates=1, seed=99)
    (heavy,) = run_cells(slow, [spec], jobs=1)
    assert len(simulated) == 2
    assert heavy[0].usage_ms_per_s > base[0].usage_ms_per_s


def test_figure_views_simulate_each_distinct_cell_once(simulated):
    params = StandardParams(duration_s=0.3, replicates=1, seed=5)
    run_multi_comparison(params, jobs=1)  # Fig. 9: 4 impls × 5 consumers
    run_consumer_scaling(params, counts=(2, 5), jobs=1)  # +4 at 2 consumers
    run_buffer_sweep(params, sizes=(25, 50), jobs=1)  # +BP, PBPL at buffer 50
    for buffer_size in (25, 50):  # all served from Fig. 11's cells
        run_wakeup_accounting(params, buffer_size=buffer_size, jobs=1)
    assert len(simulated) == len(set(simulated)) == 10
