"""Seeded lint corpus for the ``lint-cold-warm`` workload.

The corpus is a fixed-size tree of generated modules laid out under
``<root>/repro/<layer>/`` (the analyzer derives module names and layers
from the last ``repro`` path component). Its size does not depend on
the seed or on the repository's own source, so lint cost stays
comparable from one commit to the next. The seed picks names,
constants, the cross-module call graph and where the hazards go.

Every filler module is written to lint clean. The planted hazards are
the two whole-program shapes the analyzer exists for:

* DET005 — a wall-clock read in one kernel module, passed through a
  helper in a second and used as a ``schedule()`` delay in a third;
* SCHED001 — a priority-less absolute-boundary aim
  ``env.schedule(event, delay=BOUNDARY_S - env.now)``.

:func:`generate` returns the sources by relative path together with the
``(relative path, line, code)`` triple of every planted finding; the
workload writes them with :func:`write` and checks that the analyzer
reports exactly the planted set.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Tuple

#: Filler modules per corpus (fixed: lint cost must not move with the seed).
N_FILLER = 48
#: Planted hazards of each kind.
N_DET005 = 4
N_SCHED001 = 4
#: Layers the corpus spreads over; all may import one another.
LAYERS = ("core", "cpu", "buffers", "sim")

Planted = Tuple[str, int, str]

_WORDS = (
    "slot", "batch", "drain", "latch", "window", "credit", "grant", "ring",
    "epoch", "burst", "tick", "lease", "quota", "phase", "span", "cursor",
)


def _name(rng: random.Random, used: set) -> str:
    while True:
        name = f"{rng.choice(_WORDS)}_{rng.choice(_WORDS)}_{rng.randrange(100)}"
        if name not in used:
            used.add(name)
            return name


def _filler(rng: random.Random, idx: int, imports: List[Tuple[str, str]]) -> str:
    """One clean module: integer helpers, a sorted-list transform and a
    class that schedules with an explicit priority."""
    k1, k2, k3 = rng.randrange(2, 50), rng.randrange(2, 50), rng.randrange(1, 9)
    lines = [f'"""Generated filler module {idx}."""', ""]
    for module, helper in imports:
        lines.append(f"from repro.{module} import {helper}")
    lines += [
        "",
        f"LIMIT_{idx} = {rng.randrange(10, 1000)}",
        "",
        "",
        f"def helper_{idx}(values, scale):",
        "    total = 0",
        "    for i, v in enumerate(values):",
        "        if v > scale:",
        f"            total += i * {k1}",
        "        else:",
        "            total -= v // 2",
        f"    return total % LIMIT_{idx}",
        "",
        "",
        f"def transform_{idx}(items):",
        "    out = []",
        "    for item in sorted(items):",
    ]
    call = " + ".join(f"{h}([item], {k3})" for _, h in imports) or "0"
    lines += [
        f"        out.append(item * {k2} + {call})",
        "    return out",
        "",
        "",
        f"class Unit{idx}:",
        "    def __init__(self, env, size):",
        "        self.env = env",
        "        self.size = size",
        "        self.count = 0",
        "",
        "    def step(self, event):",
        "        self.count += 1",
        f"        self.env.schedule(event, delay={rng.randrange(1, 9)}e-3, "
        f"priority={rng.randrange(0, 3)})",
        "        return self.count",
        "",
        "    def fill(self, n):",
        f"        return [helper_{idx}(list(range(n)), j) for j in range(self.size)]",
        "",
        "    def summary(self, items):",
        f"        ranked = transform_{idx}(items)",
        "        best = ranked[0] if ranked else 0",
        "        for value in ranked:",
        "            if value > best:",
        "                best = value",
        "        return {'best': best, 'count': self.count, 'size': self.size}",
        "",
    ]
    return "\n".join(lines)


def _det005_chain(tag: str, src: str, mid: str) -> Tuple[str, str, str, int]:
    """(source, shaper, user) module texts and the user's hazard line."""
    source = (
        "import time\n"
        "\n"
        "\n"
        f"def raw_{tag}():\n"
        "    return time.time()  # repro: allow[DET001] -- planted source\n"
    )
    shaper = (
        f"from repro.{src} import raw_{tag}\n"
        "\n"
        "\n"
        f"def shaped_{tag}():\n"
        f"    return max(0.0, float(raw_{tag}()))\n"
    )
    user = (
        f"from repro.{mid} import shaped_{tag}\n"
        "\n"
        "\n"
        f"def kick_{tag}(env, event):\n"
        f"    env.schedule(event, delay=shaped_{tag}(), priority=1)\n"
    )
    return source, shaper, user, 5


def _sched001(tag: str, boundary: float) -> Tuple[str, int]:
    text = (
        f"BOUNDARY_{tag.upper()}_S = {boundary!r}\n"
        "\n"
        "\n"
        f"def aim_{tag}(env, event):\n"
        f"    env.schedule(event, delay=BOUNDARY_{tag.upper()}_S - env.now)\n"
    )
    return text, 5


def generate(seed: int) -> Tuple[Dict[str, str], List[Planted]]:
    """The corpus for ``seed``: ``({relative path: source}, planted)``."""
    rng = random.Random(seed)
    used: set = set()
    files = {}
    planted: List[Planted] = []

    modules: List[Tuple[str, int]] = []  # (dotted module under repro, index)
    for idx in range(N_FILLER):
        layer = rng.choice(LAYERS)
        modules.append((f"{layer}.{_name(rng, used)}", idx))
    for module, idx in modules:
        # Import only from earlier modules: the call graph is acyclic
        # and its shape is the seed's.
        earlier = modules[:idx]
        picks = rng.sample(earlier, min(len(earlier), rng.randrange(0, 3)))
        imports = [(m, f"helper_{i}") for m, i in picks]
        files[module] = _filler(rng, idx, imports)

    for k in range(N_DET005):
        tag = f"d{k}"
        src, mid, user = (f"{rng.choice(LAYERS)}.{_name(rng, used)}" for _ in range(3))
        s_text, m_text, u_text, line = _det005_chain(tag, src, mid)
        files[src], files[mid], files[user] = s_text, m_text, u_text
        planted.append((_rel(user), line, "DET005"))
    for k in range(N_SCHED001):
        tag = f"s{k}"
        module = f"{rng.choice(LAYERS)}.{_name(rng, used)}"
        files[module], line = _sched001(tag, rng.randrange(1, 100) / 10)
        planted.append((_rel(module), line, "SCHED001"))

    return {_rel(module): text for module, text in sorted(files.items())}, sorted(planted)


def write(root: Path, sources: Dict[str, str]) -> None:
    for rel, text in sources.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _rel(module: str) -> str:
    return "repro/" + module.replace(".", "/") + ".py"
