"""The determinism walker: DET001-004 at depth 0, DET005 across calls.

One straight-line walk per scope (module, class body, function) is the
only determinism pass over the source. What it sees, it sees twice over:

* **Depth 0** — where a hazard *happens*. A call whose resolved target
  is a wall-clock, entropy or RNG source is a DET001/002/003 finding on
  the spot (the clock shim and the RNG home are exempt for their own
  code); an iteration or order-keeping consumption (``for``, a list/
  generator/dict comprehension, ``list/tuple/iter/enumerate/reversed``,
  ``str.join``, ``dict.fromkeys``) whose head is set-valued is DET004.
  These are recorded with the file's facts, like any local finding.
* **Depth >= 1** — what a hazard *flows into*. The same walk records a
  JSON-serializable summary per function (which taint kinds it returns,
  which callees feed its return value, which parameters flow to its
  return or into a scheduling sink) and every taint sink: scheduling
  call arguments, kernel ``self.<attr>`` writes, and the consumption
  sites above when their order comes through a call instead. The
  project pass (:func:`propagate_returns`, bounded by
  :data:`PROPAGATION_BOUND`) resolves those refs across the call graph
  and **DET005** (:class:`CrossFunctionTaintRule`) flags taint that
  reaches a sink.

Taint kinds: ``wall-clock`` (host time, including values produced by
the sanctioned ``repro.harness.clock`` shim — legal to *read* in the
harness, never legal to feed into kernel state), ``entropy``,
``unseeded-rng`` and ``set-order``. Scalar kinds survive arbitrary
value transforms (``max(t, 0)`` of a wall-clock read is still
wall-clock). ``set-order`` starts wherever :func:`is_set_valued` — the
one classifier both depths use — says an expression is a set; it
survives names and order-preserving constructors
(``list``/``tuple``/``iter``/``reversed``/``enumerate``) and dies at
``sorted(...)``, at a scalar aggregate (``len``/``max``/``sum``...) and
at an unknown call boundary — aggregation usually destroys ordering
sensitivity, and assuming otherwise would drown the signal.
"""

from __future__ import annotations

import ast
from typing import (
    TYPE_CHECKING,
    Container,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.callgraph import attr_ref, local_ref
from repro.analysis.findings import Finding
from repro.analysis.registry import ProjectRule, register_project
from repro.analysis.rules_det import (
    EXEMPT,
    _ENTROPY,
    _NUMPY_RNG_CONSTRUCTORS,
    _WALL_CLOCK,
    set_iteration_message,
    source_message,
)
from repro.analysis.rules_layer import KERNEL_LAYERS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.callgraph import Project
    from repro.analysis.engine import ModuleContext

#: Taint kinds.
WALL_CLOCK = "wall-clock"
ENTROPY = "entropy"
UNSEEDED_RNG = "unseeded-rng"
SET_ORDER = "set-order"

#: The depth-0 finding a source kind raises where it is read.
_SOURCE_CODES = {
    WALL_CLOCK: "DET001",
    ENTROPY: "DET002",
    UNSEEDED_RNG: "DET003",
}

#: Max fixed-point passes over the summary table — the effective
#: call-depth bound for return-chain propagation.
PROPAGATION_BOUND = 12

#: Values produced by the wall-clock shim are host time; the shim module
#: itself is DET001-exempt, so the *flow* rule is the only guard against
#: its values reaching kernel state.
_CLOCK_SHIM_FNS = frozenset(
    {"repro.harness.clock.perf_counter", "repro.harness.clock.utc_stamp"}
)

#: Builtins through which scalar taint flows unchanged (set order does
#: not: each returns one value).
_PASSTHROUGH = frozenset(
    {"max", "min", "abs", "round", "float", "int", "sum", "pow", "divmod", "len"}
)
#: Constructors that preserve the iteration order of their argument —
#: ``list(a_set)`` is exactly as hash-ordered as the set was.
_ORDER_KEEPERS = frozenset({"list", "tuple", "iter", "reversed", "enumerate"})
#: Calls whose arguments cannot leak their iteration order.
_ORDER_BLIND = frozenset({"sorted", "set", "frozenset"})

#: Methods that return a new set when called on one.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

#: Methods whose call is a scheduling sink (and, for the first two, a
#: scheduling-hazard site for the SCHED rules).
SCHEDULE_METHODS = ("schedule", "_schedule_at")
SINK_METHODS = SCHEDULE_METHODS + ("timeout",)


def source_kind(ref: Optional[str]) -> Optional[str]:
    """Taint kind produced by a resolved call target, if any."""
    if ref is None:
        return None
    if ref in _WALL_CLOCK or ref in _CLOCK_SHIM_FNS:
        return WALL_CLOCK
    if ref in _ENTROPY or ref.startswith("secrets."):
        return ENTROPY
    if (
        ref.startswith("random.")
        or ref in _NUMPY_RNG_CONSTRUCTORS
        or ref.startswith("numpy.random.")
    ):
        return UNSEEDED_RNG
    return None


def is_set_valued(node: ast.AST, set_names: Container[str]) -> bool:
    """Does ``node`` evaluate to a set? The one set-valued classifier.

    Set literals and comprehensions, ``set()``/``frozenset()``, ``| & -
    ^`` with a set operand, ``union``/``intersection``/``difference``/
    ``symmetric_difference``/``copy`` on a set, and names in
    ``set_names`` — the caller decides how names get there (the walker
    tracks bindings in source order, FLOAT001 types them per scope).
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, _SET_OPS) and (
            is_set_valued(node.left, set_names)
            or is_set_valued(node.right, set_names)
        )
    if isinstance(node, ast.Call):
        fn = node.func
        if isinstance(fn, ast.Name):
            return fn.id in ("set", "frozenset")
        return (
            isinstance(fn, ast.Attribute)
            and fn.attr in _SET_METHODS
            and is_set_valued(fn.value, set_names)
        )
    return False


def _order_settled(head: ast.AST) -> bool:
    """``sorted(...)`` pins the order of a head; an order keeper
    (``list(...)``...) is a consumption site of its own and already
    recorded whatever its argument leaks."""
    return (
        isinstance(head, ast.Call)
        and isinstance(head.func, ast.Name)
        and (head.func.id == "sorted" or head.func.id in _ORDER_KEEPERS)
    )


class _Prov:
    """Provenance of one expression: direct taint kinds, flattened call
    refs (anything callable whose return value feeds the expression) and
    structured top-level call entries (for parameter-flow precision)."""

    __slots__ = ("taints", "refs", "entries")

    def __init__(self) -> None:
        self.taints: Set[str] = set()
        self.refs: Set[str] = set()
        self.entries: List[dict] = []

    def merge(self, other: "_Prov") -> "_Prov":
        self.taints |= other.taints
        self.refs |= other.refs
        self.entries.extend(other.entries)
        return self

    @property
    def interesting(self) -> bool:
        return bool(self.taints or self.refs)

    def public_taints(self) -> List[str]:
        return sorted(t for t in self.taints if not t.startswith("@param:"))

    def param_indices(self) -> List[int]:
        return sorted(
            int(t.split(":", 1)[1])
            for t in self.taints
            if t.startswith("@param:")
        )


def _entry_args(arg_provs: Sequence[Tuple[int, "_Prov"]]) -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    for idx, prov in arg_provs:
        if prov.interesting:
            out[str(idx)] = {
                "taints": sorted(prov.taints),
                "refs": sorted(prov.refs),
            }
    return out


class _FunctionWalker:
    """Straight-line determinism walk over one scope's body: depth-0
    findings plus the scope's taint summary, sinks and schedule sites."""

    def __init__(
        self,
        ctx: "ModuleContext",
        mid: str,
        qualname: str,
        classname: Optional[str],
        params: Sequence[str],
        defs: Dict[str, ast.AST],
    ) -> None:
        self.ctx = ctx
        self.mid = mid
        self.qualname = qualname
        self.classname = classname
        self.defs = defs
        #: name -> provenance of its current value
        self.env: Dict[str, _Prov] = {}
        for idx, name in enumerate(params):
            prov = _Prov()
            prov.taints.add(f"@param:{idx}")
            self.env[name] = prov
        #: names whose current value is set-valued
        self.set_names: Set[str] = set()
        self.ret = _Prov()
        self.ret_entries: List[dict] = []
        self.sinks: List[dict] = []
        self.sched_sites: List[dict] = []
        self.calls: List[dict] = []
        self.findings: List[Finding] = []
        self._loop_targets: List[Set[str]] = []
        #: >0 while collecting arguments of an order-destroying call
        #: (``sorted``/``set``/``frozenset``) — iteration in there can't
        #: leak hash order, so nothing is recorded for it.
        self._order_blind = 0

    # -- call-target resolution --------------------------------------------

    def resolve_callee(self, func: ast.AST) -> Optional[str]:
        from repro.analysis.engine import dotted_parts

        parts = dotted_parts(func)
        if not parts:
            return None
        head = parts[0]
        if head in ("self", "cls") and self.classname and len(parts) == 2:
            return local_ref(self.mid, f"{self.classname}.{parts[1]}")
        origin = self.ctx.imports.get(head)
        if origin is not None:
            return ".".join(origin.split(".") + parts[1:])
        qual = ".".join(parts)
        if qual in self.defs:
            return local_ref(self.mid, qual)
        if len(parts) == 1 and head in self.defs:
            return local_ref(self.mid, head)
        return None

    # -- expression provenance ---------------------------------------------

    def collect(self, node: Optional[ast.AST]) -> _Prov:
        """Provenance of an expression; visits every sub-expression once."""
        prov = _Prov()
        if node is None:
            return prov
        if isinstance(node, ast.Name):
            known = self.env.get(node.id)
            if known is not None:
                prov.merge(known)
        elif isinstance(node, ast.Attribute):
            from repro.analysis.engine import dotted_parts

            parts = dotted_parts(node)
            if (
                parts
                and parts[0] == "self"
                and self.classname
                and len(parts) == 2
            ):
                prov.refs.add(attr_ref(self.mid, f"{self.classname}.{parts[1]}"))
            else:
                prov = self.collect(node.value)
        elif isinstance(node, ast.Call):
            prov = self._collect_call(node)
        elif isinstance(
            node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)
        ):
            for gen in node.generators:
                it = self.collect(gen.iter)
                if not isinstance(node, ast.SetComp):
                    self._consume(
                        node, [gen.iter], it, "in a comprehension", gen.iter
                    )
                prov.merge(it)
                for cond in gen.ifs:
                    self.collect(cond)
            for field in ("elt", "key", "value"):
                sub = getattr(node, field, None)
                if sub is not None:
                    prov.merge(self.collect(sub))
        elif isinstance(node, ast.Lambda):
            self._visit_part(node.args)
            prov = self.collect(node.body)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.keyword):
                    child = child.value
                if isinstance(child, ast.expr):
                    prov.merge(self.collect(child))
        if is_set_valued(node, self.set_names):
            prov.taints.add(SET_ORDER)
        return prov

    def _collect_call(self, node: ast.Call) -> _Prov:
        prov = _Prov()
        fn = node.func
        args = list(node.args) + [kw.value for kw in node.keywords]
        ref = self.resolve_callee(fn)
        kind = source_kind(ref)
        if kind is not None:
            self._note_source(node, ref, kind)
        if isinstance(fn, ast.Name):
            name = fn.id
            if name in _ORDER_BLIND:
                self._order_blind += 1
                for arg in args:
                    prov.merge(self.collect(arg))
                self._order_blind -= 1
                # A sort pins the order; set()/frozenset() get a fresh
                # one from the classifier in collect().
                prov.taints.discard(SET_ORDER)
                prov.entries = []  # order provenance dies here
                return prov
            if name in _ORDER_KEEPERS:
                for arg in args:
                    prov.merge(self.collect(arg))
                self._consume(node, node.args, prov, f"via {name}()")
                return prov
            if name in _PASSTHROUGH:
                for arg in args:
                    prov.merge(self.collect(arg))
                prov.taints.discard(SET_ORDER)
                prov.entries = []
                return prov
        from repro.analysis.engine import dotted_parts

        arg_provs = [(idx, self.collect(arg)) for idx, arg in enumerate(args)]
        # ``make().method()``, ``a[k](x)``: the callee expression computes
        # something itself, and its value flows on like an argument's.
        callee = self.collect(fn) if dotted_parts(fn) is None else _Prov()
        for _idx, ap in arg_provs + [(-1, callee)]:
            # Scalar taint flows through an unknown callee with its
            # argument; ordering taint does not (see module docstring).
            prov.taints |= ap.taints - {SET_ORDER}
            prov.refs |= ap.refs
        if kind is not None:
            prov.taints.add(kind)
        elif ref is not None:
            prov.refs.add(ref)
            entry = {
                "ref": ref,
                "line": node.lineno,
                "args": _entry_args(arg_provs),
            }
            prov.entries.append(entry)
            self.calls.append(entry)
        if isinstance(fn, ast.Attribute) and fn.attr == "join":
            self._consume_args(node, len(node.args), arg_provs, "via str.join")
        elif (
            isinstance(fn, ast.Attribute)
            and fn.attr == "fromkeys"
            and isinstance(fn.value, ast.Name)
            and fn.value.id == "dict"
        ):
            self._consume_args(
                node, min(1, len(node.args)), arg_provs, "via dict.fromkeys"
            )
        self._note_sinks(node, fn, arg_provs)
        return prov

    # -- findings, sinks & scheduling-hazard sites ---------------------------

    def _finding(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.ctx.display_path,
                line=node.lineno,
                col=node.col_offset + 1,
                code=code,
                message=message,
            )
        )

    def _note_source(self, node: ast.Call, ref: str, kind: str) -> None:
        """DET001-003: a nondeterminism source read right here."""
        code = _SOURCE_CODES[kind]
        if ref in _CLOCK_SHIM_FNS or (code, self.ctx.module) in EXEMPT:
            return
        self._finding(code, node, source_message(code, ref))

    def _consume_args(
        self,
        node: ast.Call,
        n: int,
        arg_provs: Sequence[Tuple[int, _Prov]],
        how: str,
    ) -> None:
        """The first ``n`` positional arguments are consumed in order."""
        prov = _Prov()
        for _idx, ap in arg_provs[:n]:
            prov.merge(ap)
        self._consume(node, node.args[:n], prov, how)

    def _consume(
        self,
        site: ast.AST,
        heads: Sequence[ast.AST],
        prov: _Prov,
        how: str,
        at: Optional[ast.AST] = None,
    ) -> None:
        """An iteration or order-keeping consumption of ``heads`` at
        ``site``. A set-valued head leaks hash order right here (DET004);
        a head whose order comes from a callee becomes an ``iter`` sink
        (at ``at``, default ``site``) for DET005 to resolve."""
        if self._order_blind:
            return
        if any(is_set_valued(h, self.set_names) for h in heads):
            self._finding("DET004", site, set_iteration_message(how))
            return
        if (
            not prov.refs
            or SET_ORDER in prov.taints
            or any(_order_settled(h) for h in heads)
        ):
            return
        at = at or site
        self.sinks.append(
            {
                "kind": "iter",
                "line": at.lineno,
                "col": at.col_offset + 1,
                "func": self.qualname,
                "taints": [],
                "refs": sorted(prov.refs),
                "params": [],
            }
        )

    def _note_sinks(
        self,
        node: ast.Call,
        fn: ast.AST,
        arg_provs: Sequence[Tuple[int, _Prov]],
    ) -> None:
        if not isinstance(fn, ast.Attribute) or fn.attr not in SINK_METHODS:
            return
        combined = _Prov()
        for _idx, ap in arg_provs:
            combined.merge(ap)
        if combined.interesting:
            self.sinks.append(
                {
                    "kind": "schedule",
                    "method": fn.attr,
                    "line": node.lineno,
                    "col": node.col_offset + 1,
                    "func": self.qualname,
                    "taints": combined.public_taints(),
                    "refs": sorted(combined.refs),
                    "params": combined.param_indices(),
                }
            )
        if fn.attr in SCHEDULE_METHODS:
            self.sched_sites.append(
                self._sched_site(node, fn.attr)
            )

    def _sched_site(self, node: ast.Call, method: str) -> dict:
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        if method == "schedule":
            has_priority = "priority" in kwargs or len(node.args) >= 3
            delay = kwargs.get("delay")
            if delay is None and len(node.args) >= 2:
                delay = node.args[1]
            when = None
        else:  # _schedule_at(when, priority, event)
            has_priority = "priority" in kwargs or len(node.args) >= 2
            delay = None
            when = kwargs.get("when")
            if when is None and node.args:
                when = node.args[0]
        target = when if when is not None else delay
        kind = "zero"
        norm = "0"
        if method == "_schedule_at":
            kind = "abs"
            norm = ast.dump(target) if target is not None else "?"
        elif target is not None:
            if isinstance(target, ast.Constant) and target.value in (0, 0.0):
                kind, norm = "zero", "0"
            elif _is_absolute_delay(target):
                kind, norm = "abs", ast.dump(target)
            else:
                kind, norm = "expr", ast.dump(target)
        loop_vars = set().union(*self._loop_targets) if self._loop_targets else set()
        target_names = (
            {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
            if target is not None
            else set()
        )
        return {
            "line": node.lineno,
            "col": node.col_offset + 1,
            "func": self.qualname,
            "method": method,
            "has_priority": has_priority,
            "delay_kind": kind,
            "delay_norm": norm,
            "in_loop": bool(self._loop_targets),
            "loop_invariant": not (target_names & loop_vars),
        }

    # -- statement walk -------------------------------------------------------

    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self.visit(stmt)

    def _bind(
        self, target: ast.AST, prov: _Prov, set_valued: bool = False
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = prov
            if set_valued:
                self.set_names.add(target.id)
            else:
                self.set_names.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, prov)
        elif isinstance(target, ast.Attribute):
            from repro.analysis.engine import dotted_parts

            parts = dotted_parts(target)
            if not (
                parts
                and parts[0] == "self"
                and self.classname
                and len(parts) == 2
            ):
                self.collect(target.value)
            elif prov.interesting:
                self.sinks.append(
                    {
                        "kind": "attr_write",
                        "target": f"{self.classname}.{parts[1]}",
                        "line": target.lineno,
                        "col": target.col_offset + 1,
                        "func": self.qualname,
                        "taints": prov.public_taints(),
                        "refs": sorted(prov.refs),
                        "params": prov.param_indices(),
                    }
                )
        else:  # subscripts, starred: visit the expressions inside
            self.collect(target)

    def visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            prov = self.collect(stmt.value)
            set_valued = is_set_valued(stmt.value, self.set_names)
            for target in stmt.targets:
                self._bind(target, prov, set_valued)
        elif isinstance(stmt, ast.AnnAssign):
            self.collect(stmt.annotation)
            if stmt.value is None:
                self.collect(stmt.target)
            else:
                value = stmt.value
                self._bind(
                    stmt.target,
                    self.collect(value),
                    is_set_valued(value, self.set_names),
                )
        elif isinstance(stmt, ast.AugAssign):
            prov = self.collect(stmt.value)
            set_valued = False
            if isinstance(stmt.target, ast.Name):
                existing = self.env.get(stmt.target.id)
                if existing is not None:
                    prov.merge(existing)
                set_valued = stmt.target.id in self.set_names
            self._bind(stmt.target, prov, set_valued)
        elif isinstance(stmt, (ast.Return, ast.Expr)):
            prov = self.collect(stmt.value)
            if isinstance(stmt, ast.Return):
                self.ret.merge(prov)
                self.ret_entries.extend(prov.entries)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            it = self.collect(stmt.iter)
            self._consume(stmt, [stmt.iter], it, "in a for loop", stmt.iter)
            names = {
                n.id
                for n in ast.walk(stmt.target)
                if isinstance(n, ast.Name)
            }
            element = _Prov()
            element.taints |= it.taints - {SET_ORDER}
            element.refs |= it.refs
            self._bind(stmt.target, element)
            self._loop_targets.append(names)
            self.walk(stmt.body)
            self._loop_targets.pop()
            self.walk(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.collect(stmt.test)
            self._loop_targets.append(set())
            self.walk(stmt.body)
            self._loop_targets.pop()
            self.walk(stmt.orelse)
        elif isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # The body is a scope of its own; decorators, defaults,
            # annotations and base classes are evaluated here.
            for child in ast.iter_child_nodes(stmt):
                if not isinstance(child, ast.stmt):
                    self._visit_part(child)
        else:
            # if/with/try/match/raise/assert/del/...: every expression
            # and nested statement, in field order.
            for child in ast.iter_child_nodes(stmt):
                self._visit_part(child)

    def _visit_part(self, node: ast.AST) -> None:
        """A statement part: a statement, an expression, or a container
        of them (arguments, except handlers, with items, match cases)."""
        if isinstance(node, ast.stmt):
            self.visit(node)
        elif isinstance(node, ast.expr):
            self.collect(node)
        else:
            for child in ast.iter_child_nodes(node):
                self._visit_part(child)


def _is_absolute_delay(node: ast.AST) -> bool:
    """``X - <something>.now`` — the "aim at an absolute boundary" idiom.

    A delay computed by subtracting the current virtual time targets a
    specific timestamp; any other event aimed at the same boundary ties
    with it.
    """
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
        return False
    right = node.right
    if isinstance(right, ast.Attribute) and right.attr == "now":
        return True
    return isinstance(right, ast.Name) and right.id == "now"


def _params_of(node: ast.AST, is_method: bool) -> List[str]:
    """Positional parameter names, indexed the way a *bound* call passes
    them — ``self``/``cls`` is dropped so ``obj.helper(x)``'s argument 0
    lines up with parameter marker ``@param:0``."""
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def extract_function_facts(
    ctx: "ModuleContext", mid: str
) -> Tuple[Dict[str, dict], List[dict], List[dict], List[dict], List[Finding]]:
    """(functions, sched_sites, sinks, calls, findings) for one module.

    Walks the module top level, every class body and every function with
    a fresh straight-line walker each; the symbol table's functions
    (module level plus one class level deep) also get a summary.
    ``findings`` are the depth-0 DET001-004 findings.
    """
    from repro.analysis.callgraph import _collect_defs

    defs = _collect_defs(ctx.tree)
    functions: Dict[str, dict] = {}
    sched_sites: List[dict] = []
    sinks: List[dict] = []
    calls: List[dict] = []
    findings: List[Finding] = []

    # (qualname, classname, params, body, symbol-table node or None)
    scopes: List[tuple] = [("<module>", None, (), ctx.tree.body, None)]
    for qualname, node in defs.items():
        classname = qualname.split(".")[0] if "." in qualname else None
        params = _params_of(node, classname is not None)
        scopes.append((qualname, classname, params, node.body, node))
    # Class bodies and functions nested deeper than the symbol table
    # resolves still get walked (their findings, sinks and hazard sites
    # matter) under their own name.
    table_nodes = set(map(id, defs.values()))
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            scopes.append((node.name, None, (), node.body, None))
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and id(node) not in table_nodes
        ):
            params = _params_of(node, False)
            scopes.append((node.name, None, params, node.body, None))

    for qualname, classname, params, body, node in scopes:
        walker = _FunctionWalker(ctx, mid, qualname, classname, params, defs)
        walker.walk(body)
        sched_sites.extend(walker.sched_sites)
        sinks.extend(walker.sinks)
        findings.extend(walker.findings)
        for entry in walker.calls:
            if entry["args"]:  # only calls that carry provenance matter
                calls.append(entry)
        if node is not None:
            functions[qualname] = {
                "line": node.lineno,
                "ret_taints": walker.ret.public_taints(),
                "ret_refs": sorted(walker.ret.refs),
                "ret_entries": walker.ret_entries,
                "ret_params": walker.ret.param_indices(),
                "param_sinks": [
                    {
                        "param": idx,
                        "line": sink["line"],
                        "method": sink.get("method", "schedule"),
                    }
                    for sink in walker.sinks
                    if sink["kind"] == "schedule"
                    for idx in sink["params"]
                ],
            }
    return functions, sched_sites, sinks, calls, findings


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


def _arg_taint(
    arg: Optional[dict], returns: Dict[str, Set[str]], project: "Project"
) -> Set[str]:
    if not arg:
        return set()
    taints = {t for t in arg["taints"] if not t.startswith("@param:")}
    for ref in arg["refs"]:
        key = project.resolve_ref(ref)
        if key is not None:
            taints |= returns.get(key, set()) - {SET_ORDER}
    return taints


def _entry_taint(
    entry: dict, returns: Dict[str, Set[str]], project: "Project"
) -> Set[str]:
    key = project.resolve_ref(entry["ref"])
    if key is None:
        return set()
    taints = set(returns.get(key, set()))
    summary = project.functions.get(key)
    if summary:
        for idx in summary.get("ret_params", ()):
            taints |= _arg_taint(
                entry.get("args", {}).get(str(idx)), returns, project
            )
    return taints


def propagate_returns(project: "Project") -> Dict[str, Set[str]]:
    """Fixed-point: canonical function/attr key -> returned taint kinds.

    Attribute keys aggregate every recorded write to that attribute;
    function keys follow return chains (entries keep ``set-order``
    precision, flattened refs carry scalar kinds through unknown
    wrappers). Bounded by PROPAGATION_BOUND passes.
    """
    returns: Dict[str, Set[str]] = {}
    for _ in range(PROPAGATION_BOUND):
        changed = False
        for key, summary in project.functions.items():
            taints = set(summary["ret_taints"])
            for entry in summary["ret_entries"]:
                taints |= _entry_taint(entry, returns, project)
            for ref in summary["ret_refs"]:
                target = project.resolve_ref(ref)
                if target is not None:
                    taints |= returns.get(target, set()) - {SET_ORDER}
            if taints != returns.get(key, set()):
                returns[key] = taints
                changed = True
        for key, writes in project.attr_writes.items():
            taints = set()
            for sink in writes:
                taints |= {
                    t for t in sink["taints"] if not t.startswith("@param:")
                }
                for ref in sink["refs"]:
                    target = project.resolve_ref(ref)
                    if target is not None:
                        taints |= returns.get(target, set())
            if taints != returns.get(key, set()):
                returns[key] = taints
                changed = True
        if not changed:
            break
    return returns


# ---------------------------------------------------------------------------
# DET005
# ---------------------------------------------------------------------------

_KERNEL_SET = frozenset(KERNEL_LAYERS)


@register_project
class CrossFunctionTaintRule(ProjectRule):
    code = "DET005"
    summary = "cross-function nondeterminism reaching kernel state or schedule()"

    def check_project(self, project: "Project") -> List["Finding"]:
        returns = propagate_returns(project)
        out: List["Finding"] = []
        for facts in project.facts:
            path = facts["path"]
            kernel = facts["layer"] in _KERNEL_SET
            for sink in facts["sinks"]:
                taints = {
                    t for t in sink["taints"] if not t.startswith("@param:")
                }
                flow: List[str] = []
                for ref in sink["refs"]:
                    key = project.resolve_ref(ref)
                    if key is None:
                        continue
                    got = returns.get(key, set())
                    if sink["kind"] == "iter":
                        # Iteration sinks only care about ordering.
                        got = got & {SET_ORDER}
                    if got - taints:
                        flow.append(_describe_key(key))
                    taints |= got
                if sink["kind"] == "iter":
                    taints &= {SET_ORDER}
                if sink["kind"] == "attr_write" and not kernel:
                    continue
                if not taints:
                    continue
                out.append(self._render(path, sink, sorted(taints), flow))
            # Tainted arguments handed to a callee that forwards them
            # into a scheduling call: flag at the caller's call site.
            for entry in facts.get("calls", ()):
                key = project.resolve_ref(entry["ref"])
                if key is None:
                    continue
                summary = project.functions.get(key)
                if not summary:
                    continue
                for psink in summary.get("param_sinks", ()):
                    taints = _arg_taint(
                        entry.get("args", {}).get(str(psink["param"])),
                        returns,
                        project,
                    )
                    if not taints:
                        continue
                    out.append(
                        self.finding(
                            path,
                            entry["line"],
                            1,
                            f"nondeterministic argument "
                            f"({'/'.join(sorted(taints))}) flows into "
                            f"`.{psink['method']}(...)` inside "
                            f"`{_describe_key(key)}` (line {psink['line']} "
                            f"there)",
                        )
                    )
        return out

    def _render(
        self, path: str, sink: dict, taints: List[str], flow: List[str]
    ) -> "Finding":
        kinds = "/".join(taints)
        via = f" via {', '.join(flow[:3])}" if flow else ""
        if sink["kind"] == "schedule":
            msg = (
                f"nondeterministic value ({kinds}) reaches "
                f"`.{sink['method']}(...)`{via} — virtual timestamps and "
                f"event payloads must be pure functions of run parameters"
            )
        elif sink["kind"] == "attr_write":
            msg = (
                f"kernel state `self.{sink['target'].split('.', 1)[1]}` "
                f"assigned a nondeterministic value ({kinds}){via}"
            )
        else:
            msg = (
                f"iteration order depends on a hash-ordered collection "
                f"returned{via or ' by a callee'} — sort before iterating"
            )
        return self.finding(path, sink["line"], sink["col"], msg)


def _describe_key(key: str) -> str:
    mid, _, qualname = key.rpartition(":")
    if mid.startswith("@file:"):
        return qualname
    return f"{mid}.{qualname}"
