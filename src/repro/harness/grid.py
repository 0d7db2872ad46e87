"""The one cell graph: every figure is a view over memoized cells.

A cell is one implementation in one configuration (:class:`CellSpec`)
under one parameter set; its value is the list of per-replicate
:class:`~repro.metrics.run.RunMetrics`. :func:`run_cells` is the only
way the harness runs cells. Figures 9, 10 and 11, the §VI-C accounting,
the §III study, the sanity checks, the slot-size tuner and the
ablations all ask it for the cells they show, so a cell shared by
several views (Fig. 9's cells are Fig. 10's 5-consumer column) is
simulated once per process.

Every run is a pure function of what it reads, so the memo key is
exactly that: the params type and fields, the implementation, the
consumer count, the *resolved* config and the replicate. A
default-valued PBPL override therefore hits the default cell, and a
params subclass that changes its configs never hits a base-class cell.
The memo lives in-process only; nothing is read back from disk.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.parallel import ParallelExecutor
from repro.harness.params import StandardParams
from repro.harness.runner import run_multi
from repro.metrics.run import RunMetrics

#: Replicate results by memo key (see :func:`_key`).
_CELL_MEMO: Dict[Tuple, RunMetrics] = {}


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: an implementation in a specific configuration."""

    implementation: str
    n_consumers: int = 5
    buffer_size: Optional[int] = None
    #: PBPL-only config overrides, as a hashable sorted tuple of pairs.
    pbpl_overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def make(cls, implementation: str, **kwargs) -> "CellSpec":
        overrides = kwargs.pop("pbpl_overrides", None)
        if isinstance(overrides, dict):
            kwargs["pbpl_overrides"] = tuple(sorted(overrides.items()))
        elif overrides is not None:
            kwargs["pbpl_overrides"] = tuple(overrides)
        return cls(implementation=implementation, **kwargs)

    def overrides_dict(self) -> dict:
        return dict(self.pbpl_overrides)


def _key(params: StandardParams, spec: CellSpec, replicate: int) -> Tuple:
    """Everything one replicate of ``spec`` reads, as a hashable tuple."""
    buf = spec.buffer_size or params.buffer_size
    if spec.implementation == "PBPL":
        config = params.pbpl_config(buf, **spec.overrides_dict())
    else:
        config = params.pc_config(buf)
    return (
        type(params),
        astuple(params),
        spec.implementation,
        spec.n_consumers,
        astuple(config),
        replicate,
    )


def run_cells(
    params: StandardParams,
    specs: Sequence[CellSpec],
    jobs: Optional[int] = None,
) -> List[List[RunMetrics]]:
    """Every spec's replicates, in spec order.

    Memo misses across *all* specs are flattened into one
    ``(spec, replicate)`` task list, so a multi-job executor keeps every
    worker busy even when cells are few and replicates many; results
    are byte-identical for any ``jobs`` (None honours ``$REPRO_JOBS``).
    """
    keys = [
        [_key(params, spec, rep) for rep in range(params.replicates)]
        for spec in specs
    ]
    tasks, labels = [], []
    pending: Dict[Tuple, None] = {}  # insertion-ordered set of misses
    for spec, cell in zip(specs, keys):
        for rep, key in enumerate(cell):
            if key not in _CELL_MEMO and key not in pending:
                pending[key] = None
                tasks.append((spec, params, rep))
                labels.append(f"{spec.implementation} x{spec.n_consumers} r{rep}")
    runs = ParallelExecutor(jobs).map(_replicate_task, tasks, labels=labels)
    _CELL_MEMO.update(zip(pending, runs))
    return [[_CELL_MEMO[key] for key in cell] for cell in keys]


def _replicate_task(task) -> RunMetrics:
    """One (cell, replicate) run — module-level so pool workers can
    pickle it by reference."""
    spec, params, replicate = task
    return run_multi(
        spec.implementation,
        spec.n_consumers,
        params,
        replicate,
        buffer_size=spec.buffer_size,
        pbpl_overrides=spec.overrides_dict() or None,
    )
