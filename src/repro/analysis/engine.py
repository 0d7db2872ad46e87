"""Lint engine: file walk, module context, rule driving, CLI.

The engine runs in two passes. The **local** pass parses each ``.py``
file once into a :class:`ModuleContext` (AST + resolved import aliases +
layer identity), hands it to every registered per-module rule, and
distills the file into a JSON-serializable *facts* record (imports,
taint summaries, scheduling sites, pragmas, the local findings
themselves — DET001-004 among them, found by the same determinism walk
that writes the taint summaries). Facts are what the incremental cache under
``results/.lintcache`` stores — a warm run skips the parse and the local
rules for every unchanged file. The **project** pass stitches all facts
into a :class:`~repro.analysis.callgraph.Project` and runs the
whole-program rules (DET005 taint flow, SCHED001/002 tie hazards,
transitive LAYER checks) over it; it is cheap enough to run from cold or
cached facts alike, which is what makes cross-file invalidation free: a
changed summary is simply re-read by the next project pass.

Suppression pragmas are applied afterwards so a rule never needs to know
about them; pragmas that matched nothing are reported (``--format
json``) so stale ``allow[...]`` comments don't rot in place.

Exit codes: 0 clean, 1 unsuppressed findings, 2 unreadable/unparseable
input or bad usage. A file that fails to parse is reported as
``path:line: parse error: ...`` and the rest of the tree is still
linted.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, render_text, sort_findings
from repro.analysis.registry import (
    all_project_rules,
    all_rules,
    covers_code,
    is_suppressed,
    parse_pragmas,
    suppression_map,
)


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` attribute chain -> ``["a", "b", "c"]``, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted origin, for every import in the file.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter`` maps ``perf_counter -> time.perf_counter``. Relative
    imports are left out (they never alias stdlib entropy sources).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one source file."""

    path: Path
    display_path: str
    module: Optional[str]  # dotted name, e.g. "repro.core.manager"
    layer: Optional[str]  # first package under repro, e.g. "core"
    tree: ast.Module
    lines: List[str]
    imports: Dict[str, str] = field(default_factory=dict)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an expression, through import aliases.

        ``np.random.default_rng`` -> ``numpy.random.default_rng`` when the
        file did ``import numpy as np``; None for non-name expressions.
        """
        parts = dotted_parts(node)
        if not parts:
            return None
        origin = self.imports.get(parts[0])
        if origin is not None:
            parts = origin.split(".") + parts[1:]
        return ".".join(parts)


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name, anchored at the last ``repro`` path component."""
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - parts[::-1].index("repro")
    rel = parts[idx:]
    if rel[-1].endswith(".py"):
        rel[-1] = rel[-1][:-3]
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def layer_for(module: Optional[str]) -> Optional[str]:
    if not module or not module.startswith("repro."):
        return None
    return module.split(".")[1]


def load_context(
    path: Path,
    display_path: Optional[str] = None,
    source: Optional[str] = None,
) -> ModuleContext:
    if source is None:
        source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    module = module_name_for(path)
    return ModuleContext(
        path=path,
        display_path=display_path or str(path),
        module=module,
        layer=layer_for(module),
        tree=tree,
        lines=source.splitlines(),
        imports=collect_imports(tree),
    )


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    # De-duplicate while keeping a stable, sorted order.
    return sorted(set(files))


# ---------------------------------------------------------------------------
# the two-pass analysis
# ---------------------------------------------------------------------------


@dataclass
class AnalysisResult:
    """Everything one analysis run produced."""

    findings: List[Finding]  # unsuppressed, not baselined
    errors: List[str]  # unreadable / unparseable files
    baselined: List[Finding] = field(default_factory=list)
    stale_baseline: List[dict] = field(default_factory=list)
    unused_suppressions: List[dict] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)


def _local_findings(ctx: ModuleContext) -> List[Finding]:
    out: List[Finding] = []
    for rule in all_rules():
        out.extend(rule.check(ctx))
    return out


def _facts_for_files(
    files: Sequence[Path], cache, errors: List[str]
) -> List[dict]:
    from repro.analysis.cache import file_digest
    from repro.analysis.callgraph import extract_facts

    facts_list: List[dict] = []
    for path in files:
        display = str(path)
        try:
            data = path.read_bytes()
        except OSError as exc:
            errors.append(f"{path}: unreadable: {exc}")
            continue
        digest = file_digest(data)
        facts = cache.get(display, digest) if cache is not None else None
        if facts is None:
            try:
                source = data.decode("utf-8")
                ctx = load_context(path, source=source)
            except SyntaxError as exc:
                errors.append(
                    f"{path}:{exc.lineno or 1}: parse error: {exc.msg}"
                )
                continue
            except UnicodeDecodeError as exc:
                errors.append(f"{path}:1: parse error: {exc.reason}")
                continue
            facts = extract_facts(
                ctx, _local_findings(ctx), parse_pragmas(ctx.lines)
            )
            if cache is not None:
                cache.put(display, digest, facts)
        facts_list.append(facts)
    return facts_list


def _diff_keep_paths(
    project, changed: Sequence[str]
) -> FrozenSet[str]:
    """Display paths inside the reverse-dependency cone of the changed
    files — the set ``--diff`` reports on."""
    import os

    norm_changed = {os.path.normpath(c) for c in changed}
    by_norm = {
        os.path.normpath(f["path"]): f for f in project.facts
    }
    seeds = [
        by_norm[c]["module_id"] for c in sorted(norm_changed) if c in by_norm
    ]
    cone = project.reverse_dependency_cone(seeds)
    return frozenset(
        f["path"]
        for f in project.facts
        if f["module_id"] in cone
        or os.path.normpath(f["path"]) in norm_changed
    )


def analyze(
    paths: Sequence[Path],
    cache=None,
    baseline: Optional[dict] = None,
    changed: Optional[Sequence[str]] = None,
) -> AnalysisResult:
    """Run both passes over every file under ``paths``.

    ``cache`` is a :class:`~repro.analysis.cache.LintCache` or None;
    ``baseline`` a loaded baseline dict (grandfathered findings are
    split out, not dropped); ``changed`` a list of changed file paths —
    when given, findings are restricted to those files plus their
    reverse-dependency cone (the whole tree is still *analyzed*, which
    the cache makes cheap, because the cone is a property of the full
    import graph).
    """
    from repro.analysis.baseline import split_findings
    from repro.analysis.callgraph import Project

    errors: List[str] = []
    files = iter_python_files(paths)
    facts_list = _facts_for_files(files, cache, errors)
    project = Project(facts_list)

    all_findings: List[Finding] = []
    supp_by_path: Dict[str, Dict[int, FrozenSet[str]]] = {}
    pragmas_by_path: Dict[str, List[dict]] = {}
    for facts in facts_list:
        p = facts["path"]
        pragmas_by_path[p] = facts["pragmas"]
        supp_by_path[p] = suppression_map(facts["pragmas"])
        for f in facts["local_findings"]:
            all_findings.append(Finding(**f))
    for rule in all_project_rules():
        all_findings.extend(rule.check_project(project))

    kept: List[Finding] = []
    used: Set[Tuple[str, int]] = set()
    for f in all_findings:
        supp = supp_by_path.get(f.path, {})
        if is_suppressed(f, supp):
            for i, pragma in enumerate(pragmas_by_path.get(f.path, [])):
                if f.line in pragma["covers"] and covers_code(
                    f.code, pragma["codes"]
                ):
                    used.add((f.path, i))
        else:
            kept.append(f)
    unused = [
        {"path": p, "line": pragma["line"], "codes": list(pragma["codes"])}
        for p in sorted(pragmas_by_path)
        for i, pragma in enumerate(pragmas_by_path[p])
        if (p, i) not in used
    ]

    if changed is not None:
        keep_paths = _diff_keep_paths(project, changed)
        kept = [f for f in kept if f.path in keep_paths]
        unused = [u for u in unused if u["path"] in keep_paths]

    stale: List[dict] = []
    baselined: List[Finding] = []
    if baseline is not None:
        kept, baselined, stale = split_findings(kept, baseline)

    if cache is not None:
        cache.save()
    stats = {
        "files": len(files),
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_misses": cache.misses if cache is not None else len(files),
    }
    return AnalysisResult(
        findings=sort_findings(kept),
        errors=errors,
        baselined=sort_findings(baselined),
        stale_baseline=stale,
        unused_suppressions=unused,
        stats=stats,
    )


def lint_paths(paths: Sequence[Path]) -> Tuple[List[Finding], List[str]]:
    """Lint every file under ``paths`` (no cache, no baseline).

    Returns ``(findings, errors)`` where ``errors`` are human-readable
    messages for files that could not be read or parsed.
    """
    result = analyze(paths)
    return result.findings, result.errors


def _render_result_json(result: AnalysisResult) -> str:
    import json

    doc = {
        "schema": "repro.lint/2",
        "count": len(result.findings),
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "message": f.message,
            }
            for f in result.findings
        ],
        "baselined": len(result.baselined),
        "stale_baseline": result.stale_baseline,
        "unused_suppressions": result.unused_suppressions,
        "errors": result.errors,
        "stats": result.stats,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _git_changed_files(ref: str) -> List[str]:
    """Paths changed between ``ref`` and the working tree."""
    proc = subprocess.run(
        ["git", "diff", "--name-only", ref, "--"],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        raise RuntimeError(
            detail[0] if detail else f"git diff {ref} failed"
        )
    return [line.strip() for line in proc.stdout.splitlines() if line.strip()]


def _default_names_path() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent / "trace" / "names.py"


def _default_metric_names_path() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent / "telemetry" / "names.py"


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The lint options, for both ``python -m repro.analysis`` and the
    ``repro lint`` subcommand."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--diff",
        metavar="REF",
        default=None,
        help="only report findings in files changed since REF plus "
        "their reverse-dependency cone (the full tree is still "
        "analyzed so the cone is exact)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="subtract grandfathered findings listed in this JSON file "
        "(kernel entries are rejected)",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        metavar="PATH",
        default=None,
        help="write the current finding set as the new baseline and exit",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental facts cache",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="override the cache location (default: results/.lintcache)",
    )
    parser.add_argument(
        "--write-names",
        action="store_true",
        help="regenerate trace/names.py (tracer call sites) and "
        "telemetry/names.py (instrument call sites), then exit",
    )
    parser.add_argument(
        "--names-out",
        type=Path,
        default=None,
        help="override the generated trace names.py location "
        "(with --write-names; given alone, only the trace table is written)",
    )
    parser.add_argument(
        "--metric-names-out",
        type=Path,
        default=None,
        help="override the generated telemetry names.py location "
        "(with --write-names; given alone, only the metric table is written)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Static determinism/purity/layering analysis for src/repro.",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """Lint with parsed :func:`add_arguments` options; the exit code."""
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"repro lint: no such path: {p}", file=sys.stderr)
        return 2

    if args.write_names:
        # An explicit single override regenerates only that table —
        # tooling pointing --names-out at a scratch file must not
        # silently rewrite the *other* committed table in-tree.
        from repro.analysis.rules_metrics import write_metric_names_module
        from repro.analysis.rules_trace import write_names_module

        write_trace = args.metric_names_out is None or args.names_out is not None
        write_metric = args.names_out is None or args.metric_names_out is not None
        if write_trace:
            out = args.names_out or _default_names_path()
            names = write_names_module(paths, out)
            print(f"wrote {len(names)} registered trace names to {out}")
        if write_metric:
            out = args.metric_names_out or _default_metric_names_path()
            names = write_metric_names_module(paths, out)
            print(f"wrote {len(names)} registered metric names to {out}")
        return 0

    from repro.analysis.baseline import BaselineError, load_baseline, write_baseline
    from repro.analysis.cache import DEFAULT_CACHE_DIR, LintCache

    cache = None
    if not args.no_cache:
        cache = LintCache(args.cache_dir or DEFAULT_CACHE_DIR)

    baseline = None
    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2

    changed = None
    if args.diff is not None:
        try:
            changed = _git_changed_files(args.diff)
        except (OSError, RuntimeError) as exc:
            print(f"repro lint: --diff {args.diff}: {exc}", file=sys.stderr)
            return 2

    result = analyze(paths, cache=cache, baseline=baseline, changed=changed)
    for err in result.errors:
        print(f"repro lint: {err}", file=sys.stderr)

    if args.write_baseline is not None:
        try:
            n = write_baseline(args.write_baseline, result.findings)
        except BaselineError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {n} baseline entries to {args.write_baseline}")
        return 2 if result.errors else 0

    if args.format == "json":
        sys.stdout.write(_render_result_json(result))
    elif args.format == "sarif":
        from repro.analysis.sarif import render_sarif

        sys.stdout.write(render_sarif(result.findings))
    else:
        print(render_text(result.findings))
        if result.baselined:
            print(f"({len(result.baselined)} baselined)")
        if result.stale_baseline:
            print(
                f"({len(result.stale_baseline)} stale baseline "
                f"entr{'y' if len(result.stale_baseline) == 1 else 'ies'} — "
                f"regenerate with --write-baseline)"
            )
    if result.errors:
        return 2
    return 1 if result.findings else 0


# Rule modules register themselves on import; keep these imports last so
# the registry helpers above exist when they run. The project-rule
# modules (taint, sched) come after the local modules they build on.
from repro.analysis import rules_det  # noqa: E402,F401
from repro.analysis import rules_layer  # noqa: E402,F401
from repro.analysis import rules_metrics  # noqa: E402,F401
from repro.analysis import rules_pure  # noqa: E402,F401
from repro.analysis import rules_trace  # noqa: E402,F401
from repro.analysis import rules_float  # noqa: E402,F401
from repro.analysis import rules_sched  # noqa: E402,F401
from repro.analysis import taint  # noqa: E402,F401
