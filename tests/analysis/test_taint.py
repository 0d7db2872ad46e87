"""DET005: the interprocedural taint pass.

Every test builds a small multi-file tree and asserts on the
whole-program findings — the injected leaks here are exactly the shapes
the per-scope DET rules cannot see.
"""

from .conftest import codes


def _det005(findings):
    return [f for f in findings if f.code == "DET005"]


def test_wall_clock_through_helper_reaches_schedule(lint_tree):
    """The motivating case: a wall-clock read returned by a helper in
    another module, fed into ``schedule()`` inside the kernel."""
    findings = lint_tree(
        {
            "harness/util.py": (
                "import time\n"
                "\n"
                "\n"
                "def stamp():\n"
                "    return time.time()  # repro: allow[DET001] -- harness-side read\n"
            ),
            "sim/user.py": (
                "from repro.harness.util import stamp\n"
                "\n"
                "\n"
                "def kick(env, event):\n"
                "    env.schedule(event, delay=stamp(), priority=1)\n"
            ),
        }
    )
    hits = _det005(findings)
    assert len(hits) == 1
    assert hits[0].path.endswith("sim/user.py")
    assert hits[0].line == 5
    assert "wall-clock" in hits[0].message


def test_clock_shim_values_are_wall_clock_sources(lint_tree):
    """repro.harness.clock is DET001-exempt, but its *values* are host
    time — the flow rule is the only guard on them."""
    findings = lint_tree(
        {
            "core/user.py": (
                "from repro.harness.clock import perf_counter\n"
                "\n"
                "\n"
                "def kick(env, event):\n"
                "    env.schedule(event, delay=perf_counter(), priority=1)\n"
            ),
        }
    )
    hits = _det005(findings)
    assert len(hits) == 1 and "wall-clock" in hits[0].message


def test_taint_survives_scalar_transforms_and_return_chain(lint_tree):
    """max()/float() wrappers and a two-hop return chain don't launder."""
    findings = lint_tree(
        {
            "core/a.py": (
                "import time\n"
                "\n"
                "\n"
                "def raw():\n"
                "    return time.time()  # repro: allow[DET001] -- source\n"
            ),
            "core/b.py": (
                "from repro.core.a import raw\n"
                "\n"
                "\n"
                "def shaped():\n"
                "    return max(0.0, float(raw()))\n"
            ),
            "sim/user.py": (
                "from repro.core.b import shaped\n"
                "\n"
                "\n"
                "def kick(env, event):\n"
                "    env.schedule(event, delay=shaped(), priority=1)\n"
            ),
        }
    )
    hits = _det005(findings)
    assert [f.path.split("repro/")[-1] for f in hits] == ["sim/user.py"]


def test_kernel_attr_write_flagged_only_in_kernel_layers(lint_tree):
    source = (
        "import random\n"
        "\n"
        "\n"
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.jitter = random.random()  # repro: allow[DET003] -- local rule\n"
    )
    kernel = lint_tree({"buffers/thing.py": source})
    assert len(_det005(kernel)) == 1
    assert "kernel state" in _det005(kernel)[0].message


def test_attr_write_outside_kernel_not_flagged(lint_tree):
    source = (
        "import random\n"
        "\n"
        "\n"
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.jitter = random.random()  # repro: allow[DET003] -- local rule\n"
    )
    harness = lint_tree({"harness/thing.py": source})
    assert _det005(harness) == []


def test_tainted_argument_flows_into_callee_schedule(lint_tree):
    """Parameter flow: the *caller* passes entropy into a helper that
    schedules with it — flagged at the caller's call site."""
    findings = lint_tree(
        {
            "core/fwd.py": (
                "def fire(env, event, delay):\n"
                "    env.schedule(event, delay=delay, priority=1)\n"
            ),
            "core/user.py": (
                "import random\n"
                "from repro.core.fwd import fire\n"
                "\n"
                "\n"
                "def kick(env, event):\n"
                "    fire(env, event, random.random())  # repro: allow[DET003] -- local rule\n"
            ),
        }
    )
    hits = _det005(findings)
    assert len(hits) == 1
    assert hits[0].path.endswith("core/user.py") and hits[0].line == 6
    assert "unseeded-rng" in hits[0].message


def test_set_order_iteration_after_call_boundary(lint_tree):
    findings = lint_tree(
        {
            "core/maker.py": (
                "def live_ids(consumers):\n"
                "    return {c.cid for c in consumers}"
                "  # repro: allow[DET004] -- construction only\n"
            ),
            "core/user.py": (
                "from repro.core.maker import live_ids\n"
                "\n"
                "\n"
                "def drain(consumers):\n"
                "    for cid in live_ids(consumers):\n"
                "        print(cid)\n"
            ),
        }
    )
    hits = _det005(findings)
    assert len(hits) == 1
    assert hits[0].path.endswith("core/user.py") and hits[0].line == 5
    assert "hash-ordered" in hits[0].message


def test_sorted_kills_set_order(lint_tree):
    findings = lint_tree(
        {
            "core/maker.py": (
                "def live_ids(consumers):\n"
                "    return {c.cid for c in consumers}"
                "  # repro: allow[DET004] -- construction only\n"
            ),
            "core/user.py": (
                "from repro.core.maker import live_ids\n"
                "\n"
                "\n"
                "def drain(consumers):\n"
                "    for cid in sorted(live_ids(consumers)):\n"
                "        print(cid)\n"
            ),
        }
    )
    assert _det005(findings) == []


def test_reexport_chain_resolution(lint_tree):
    """Taint resolves through a package __init__ re-export."""
    findings = lint_tree(
        {
            "core/__init__.py": "from repro.core.deep import stamp\n",
            "core/deep.py": (
                "import time\n"
                "\n"
                "\n"
                "def stamp():\n"
                "    return time.time()  # repro: allow[DET001] -- source\n"
            ),
            "sim/user.py": (
                "from repro.core import stamp\n"
                "\n"
                "\n"
                "def kick(env, event):\n"
                "    env.schedule(event, delay=stamp(), priority=1)\n"
            ),
        }
    )
    hits = _det005(findings)
    assert len(hits) == 1 and hits[0].path.endswith("sim/user.py")


def test_clean_cross_module_flow_stays_clean(lint_tree):
    findings = lint_tree(
        {
            "core/a.py": "def delta():\n    return 0.5\n",
            "sim/user.py": (
                "from repro.core.a import delta\n"
                "\n"
                "\n"
                "def kick(env, event):\n"
                "    env.schedule(event, delay=delta(), priority=1)\n"
            ),
        }
    )
    assert codes(findings) == []


def test_set_method_result_keeps_set_order_across_call(lint_tree):
    """``s.union(b)`` is a set, exactly like ``s | b``: a caller iterating
    the returned value sees hash order."""
    findings = lint_tree(
        {
            "core/maker.py": (
                "def merged(a, b):\n"
                "    s = set(a)\n"
                "    return s.union(b)\n"
            ),
            "core/user.py": (
                "from repro.core.maker import merged\n"
                "\n"
                "\n"
                "def drain(a, b):\n"
                "    for x in merged(a, b):\n"
                "        print(x)\n"
            ),
        }
    )
    assert [(f.code, f.path.split("repro/")[-1], f.line, f.col) for f in findings] == [
        ("DET005", "core/user.py", 5, 14)
    ]


def test_scalar_aggregate_of_a_set_is_not_hash_ordered(lint_tree):
    """``max(s)`` is one value; a list holding it has no set order."""
    findings = lint_tree(
        {
            "core/maker.py": (
                "def biggest(a):\n"
                "    s = set(a)\n"
                "    return [max(s)]\n"
            ),
            "core/user.py": (
                "from repro.core.maker import biggest\n"
                "\n"
                "\n"
                "def drain(a):\n"
                "    for y in biggest(a):\n"
                "        print(y)\n"
            ),
        }
    )
    assert findings == []


def test_comprehension_if_clause_sinks_are_seen(lint_tree):
    """A scheduling call inside a comprehension ``if`` is still a sink."""
    findings = lint_tree(
        {
            "core/user.py": (
                "import time\n"
                "\n"
                "\n"
                "def kick(env, ev, xs):\n"
                "    return [x for x in xs if env.schedule(ev, delay=time.time())]\n"
            ),
        }
    )
    assert [(f.code, f.line, f.col) for f in findings] == [
        ("DET005", 5, 30),
        ("DET001", 5, 53),
    ]


def test_order_keeping_consumers_are_iteration_sinks(lint_tree):
    """``str.join``/``list()`` over a callee's set are the same sink as a
    loop over it; a loop over ``list(...)`` is reported once, at the
    ``list`` call."""
    findings = lint_tree(
        {
            "core/maker.py": (
                "def live_ids(consumers):\n"
                "    return {c.cid for c in consumers}"
                "  # repro: allow[DET004] -- construction only\n"
            ),
            "core/user.py": (
                "from repro.core.maker import live_ids\n"
                "\n"
                "\n"
                "def drain(consumers):\n"
                "    label = ','.join(live_ids(consumers))\n"
                "    for cid in list(live_ids(consumers)):\n"
                "        print(label, cid)\n"
            ),
        }
    )
    assert [(f.code, f.line, f.col) for f in findings] == [
        ("DET005", 5, 13),
        ("DET005", 6, 16),
    ]
