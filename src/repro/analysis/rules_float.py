"""FLOAT001: order-sensitive float accumulation over unordered iterables.

Float addition is not associative, so ``sum()`` over a set (or anything
hash-ordered) can change in the last ulp between runs — and the metrics
and power layers reconcile energies to <1e-9 J, where a flipped
summation order is a real diff. DET004 flags hash-order iteration in
general; this rule targets the accumulation pattern specifically in the
numeric layers (``metrics``, ``power``, ``telemetry``), where the fix is
different: ``sorted(...)`` pins the order, or ``math.fsum(...)`` makes
the sum order-independent outright (it is exempt here for that reason).

"Hash-ordered" is decided by the same set-valued classifier the
determinism walker uses (:func:`repro.analysis.taint.is_set_valued`);
only the typing of names differs — here a name is a set if any
assignment in its scope makes it one (flow-insensitive), where the
walker follows bindings in source order.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, List, Set

from repro.analysis.registry import LintRule, register
from repro.analysis.taint import is_set_valued

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleContext
    from repro.analysis.findings import Finding

#: Layers whose float sums feed reconciliation gates.
NUMERIC_LAYERS = ("metrics", "power", "telemetry")


class _SetNames(ast.NodeVisitor):
    """Names assigned a set-typed value anywhere in one scope (a
    flow-insensitive approximation; good enough to type locals)."""

    def __init__(self) -> None:
        self.names: Set[str] = set()

    def visit_Assign(self, node: ast.Assign) -> None:
        if is_set_valued(node.value, self.names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.names.add(target.id)
        self.generic_visit(node)

    def visit_FunctionDef(self, node):  # nested scopes handled separately
        pass

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef


def _sum_over_unordered(call: ast.Call, set_names: Set[str]) -> bool:
    if not (isinstance(call.func, ast.Name) and call.func.id == "sum"):
        return False
    if not call.args:
        return False
    arg = call.args[0]
    if is_set_valued(arg, set_names):
        return True
    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
        return any(
            is_set_valued(gen.iter, set_names) for gen in arg.generators
        )
    return False


def _scopes(tree: ast.Module) -> Iterable[Iterable[ast.stmt]]:
    yield tree.body
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.body


def _walk_scope(body: Iterable[ast.stmt]) -> Iterable[ast.AST]:
    """Every node in one scope, pruning nested function bodies (they are
    their own scope and would double-report)."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class UnorderedFloatSumRule(LintRule):
    code = "FLOAT001"
    summary = "float sum over an unordered iterable in a numeric layer"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        if ctx.layer not in NUMERIC_LAYERS:
            return []
        out: List["Finding"] = []
        for body in _scopes(ctx.tree):
            collector = _SetNames()
            for stmt in body:
                collector.visit(stmt)
            for node in _walk_scope(body):
                if isinstance(node, ast.Call) and _sum_over_unordered(
                    node, collector.names
                ):
                    out.append(
                        self.finding(
                            ctx,
                            node,
                            "float sum over a hash-ordered iterable — "
                            "addition is not associative; sum over "
                            "sorted(...) or use math.fsum(...)",
                        )
                    )
        return out
