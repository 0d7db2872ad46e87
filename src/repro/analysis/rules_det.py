"""DET rules: determinism at the source level.

DET001  wall-clock reads (time.time/perf_counter/datetime.now/...)
        anywhere except the allowlisted ``repro.harness.clock`` shim.
DET002  ambient entropy (os.urandom, uuid1/uuid4, secrets).
DET003  RNG discipline: stdlib ``random`` is banned outright; numpy
        generator/seed construction is allowed only inside
        ``repro.sim.rng`` (named streams derived from run parameters).
DET004  iteration over set/frozenset values (or expressions derived from
        them) without an ordering step — hash order leaks into output.

None of these has a walk of its own: they are the depth-0 findings of
the one determinism walker in :mod:`repro.analysis.taint`, recorded at
the call or iteration it already visits for DET005. This module holds
what they flag (the source tables), what they say, and where they are
exempt.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Optional

from repro.analysis.registry import declare

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleContext

CLOCK_SHIM_MODULE = "repro.harness.clock"
RNG_HOME_MODULE = "repro.sim.rng"

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_ENTROPY = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

_NUMPY_RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.PCG64",
        "numpy.random.Philox",
    }
)

declare("DET001", "wall-clock read outside harness.clock")
declare("DET002", "ambient entropy source")
declare("DET003", "RNG constructed or drawn outside sim.rng")
declare("DET004", "hash-order iteration over a set")

#: (code, module) pairs where a source is legal: the clock shim may read
#: the wall clock, the RNG home may construct generators.
EXEMPT = frozenset(
    {("DET001", CLOCK_SHIM_MODULE), ("DET003", RNG_HOME_MODULE)}
)


def resolved_call(ctx: "ModuleContext", call: ast.Call) -> Optional[str]:
    """Canonical dotted name of a call target, only when its head name was
    imported in this file (avoids flagging local variables that shadow
    module names)."""
    from repro.analysis.engine import dotted_parts

    parts = dotted_parts(call.func)
    if not parts or parts[0] not in ctx.imports:
        return None
    origin = ctx.imports[parts[0]]
    return ".".join(origin.split(".") + parts[1:])


def source_message(code: str, name: str) -> str:
    """What a DET001-003 finding at a call to ``name`` says."""
    if code == "DET001":
        return (
            f"wall-clock read `{name}` — route timing through "
            f"repro.harness.clock (virtual time comes from env.now)"
        )
    if code == "DET002":
        return (
            f"ambient entropy `{name}` — runs must be a pure "
            f"function of their parameters; use sim.rng streams"
        )
    if name.startswith("random."):
        return (
            f"stdlib `{name}` draws from process-global state — "
            f"use a named stream from sim.rng.RandomStreams"
        )
    if name in _NUMPY_RNG_CONSTRUCTORS:
        return (
            f"`{name}` outside sim.rng — seeds must be derived "
            f"from run parameters by RandomStreams only"
        )
    return (
        f"`{name}` uses numpy's global RNG state — draw from "
        f"a sim.rng stream instead"
    )


def set_iteration_message(how: str) -> str:
    """What a DET004 finding says; ``how`` names the consuming construct."""
    return (
        f"iteration over a set {how} depends on hash order — wrap in "
        f"sorted(...) (or suppress if provably order-free)"
    )
