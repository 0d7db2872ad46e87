"""Multiple producer-consumer systems (paper §VI).

The evaluation runs M independent pairs side by side: each consumer has
its own producer, buffer and synchronisation (Mutex/Sem/BP), with all
consumers pinned to the same isolated core set — phase-shifted copies of
one trace drive the producers ("each consumer is shifted one Mth further
into the dataset", §VI-A). :class:`MultiPairSystem` builds and starts
those pairs for any single-pair implementation class; PBPL has its own
orchestration in :mod:`repro.core` (it is not M independent pairs — its
consumers coordinate through core managers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Type

from repro.cpu.machine import Machine
from repro.impls.base import PairStats, PCConfig
from repro.impls.single import PCImplementation, SINGLE_IMPLEMENTATIONS
from repro.workloads.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.environment import Environment


def phase_shifted_traces(trace: Trace, n: int) -> List[Trace]:
    """The paper's workload construction: pair ``i`` replays the trace
    shifted ``i/n`` of the way into the window."""
    if n < 1:
        raise ValueError("need at least one pair")
    return [trace.shifted(i / n, name=f"{trace.name}#p{i}") for i in range(n)]


class MultiPairSystem:
    """M pairs of one implementation on a machine.

    Parameters
    ----------
    impl:
        A single-pair implementation class (or its registry name:
        "Mutex", "Sem", "BP", ...).
    traces:
        One trace per pair (use :func:`phase_shifted_traces`).
    consumer_cores:
        Core ids to pin consumers to, round-robin. Default ``[0]`` —
        the paper isolates consumers on a dedicated core set and the
        headline experiments put them together so latching (in PBPL)
        has something to latch onto; the non-latching baselines here
        share the same placement for a fair comparison.
    """

    def __init__(
        self,
        env: "Environment",
        machine: Machine,
        impl: "Type[PCImplementation] | str",
        traces: Sequence[Trace],
        config: Optional[PCConfig] = None,
        consumer_cores: Optional[Sequence[int]] = None,
    ) -> None:
        if isinstance(impl, str):
            try:
                impl = SINGLE_IMPLEMENTATIONS[impl]
            except KeyError:
                raise ValueError(
                    f"unknown implementation {impl!r}; "
                    f"choose from {sorted(SINGLE_IMPLEMENTATIONS)}"
                ) from None
        if not traces:
            raise ValueError("need at least one trace")
        self.env = env
        self.machine = machine
        self.impl_cls = impl
        self.config = config or PCConfig()
        cores = list(consumer_cores) if consumer_cores else [0]
        self.pairs: List[PCImplementation] = [
            impl(
                env,
                machine.core(cores[i % len(cores)]),
                machine.timers,
                trace,
                self.config,
                owner=f"consumer-{i}",
            )
            for i, trace in enumerate(traces)
        ]

    @property
    def name(self) -> str:
        return self.impl_cls.name

    def start(self) -> "MultiPairSystem":
        for pair in self.pairs:
            pair.start()
        return self

    # -- aggregated statistics ------------------------------------------------
    def aggregate_stats(self) -> PairStats:
        """All pairs' stats merged (see :meth:`PairStats.merged`)."""
        return PairStats.merged(pair.stats for pair in self.pairs)

    def buffered_items(self) -> int:
        """Items buffered or in flight — the remainder term of the
        conservation check ``produced == consumed + shed + buffered``."""
        return sum(len(p.buffer) + p.in_flight for p in self.pairs)

    def average_buffer_capacity(self) -> float:
        """Mean of the pairs' current buffer capacities (static for the
        fixed-buffer implementations; PBPL's analogue fluctuates)."""
        return sum(p.buffer.capacity for p in self.pairs) / len(self.pairs)

    def __repr__(self) -> str:
        return f"<MultiPairSystem {self.name} x{len(self.pairs)}>"
