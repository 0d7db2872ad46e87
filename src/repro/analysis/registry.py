"""Rule registry and ``# repro: allow[...]`` suppression parsing.

Rules self-register with :func:`register` (per-module ``check``),
:func:`register_project` (whole-program ``check_project``) or
:func:`declare` (findings recorded by the determinism walker during fact
extraction, DET001-004); the engine iterates :func:`all_rules` in code
order so output is stable regardless of import order. Suppressions are
comment pragmas::

    x = time.time()  # repro: allow[DET001] -- harness boot banner

    # repro: allow[DET]
    y = time.time()

A pragma on its own line covers the next source line; a trailing pragma
covers its own line. The bracket takes a comma-separated list of exact
codes (``DET001``) or family prefixes (``DET`` covers every DET rule).
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleContext
    from repro.analysis.findings import Finding


class LintRule:
    """Base class for AST lint rules.

    Subclasses set ``code`` (e.g. ``"DET001"``) and ``summary`` and
    implement :meth:`check`, returning findings for one module.
    """

    code: str = ""
    summary: str = ""

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        raise NotImplementedError

    def finding(self, ctx: "ModuleContext", node: ast.AST, message: str) -> "Finding":
        from repro.analysis.findings import Finding

        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


class ProjectRule:
    """Base class for whole-program rules.

    Unlike :class:`LintRule`, a project rule sees every file at once: it
    runs over the :class:`~repro.analysis.callgraph.Project` built from
    per-file facts (symbol table, call graph, import graph, taint
    summaries) and may anchor findings in any file. A project rule may
    share its code with a local rule (LAYER001's reachability upgrade
    complements the direct-import check under the same code), so the two
    registries are kept separate.
    """

    code: str = ""
    summary: str = ""

    def check_project(self, project) -> List["Finding"]:
        raise NotImplementedError

    def finding(self, path: str, line: int, col: int, message: str) -> "Finding":
        from repro.analysis.findings import Finding

        return Finding(path=path, line=line, col=col, code=self.code, message=message)


_REGISTRY: Dict[str, LintRule] = {}
_PROJECT_REGISTRY: Dict[str, ProjectRule] = {}
#: code -> one-line summary of every registered rule, whatever its kind.
_SUMMARIES: Dict[str, str] = {}


def register(cls):
    """Class decorator: instantiate and register a rule by its code."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls()
    _SUMMARIES[cls.code] = cls.summary
    return cls


def register_project(cls):
    """Class decorator: register a whole-program rule by its code."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _PROJECT_REGISTRY:
        raise ValueError(f"duplicate project rule code {cls.code}")
    _PROJECT_REGISTRY[cls.code] = cls()
    _SUMMARIES.setdefault(cls.code, cls.summary)
    return cls


def declare(code: str, summary: str) -> None:
    """Register a code whose findings the fact-extraction walk records
    itself (no ``check`` method runs for it)."""
    if code in _SUMMARIES:
        raise ValueError(f"duplicate rule code {code}")
    _SUMMARIES[code] = summary


def all_rules() -> List[LintRule]:
    """Registered per-module rules in code order."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def all_project_rules() -> List[ProjectRule]:
    """Registered whole-program rules in code order."""
    return [_PROJECT_REGISTRY[code] for code in sorted(_PROJECT_REGISTRY)]


def rule_codes() -> List[str]:
    return sorted(_SUMMARIES)


def rule_summaries() -> Dict[str, str]:
    """code -> one-line summary for every registered rule (SARIF metadata)."""
    return dict(sorted(_SUMMARIES.items()))


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")


def _comment_lines(lines: Sequence[str]) -> Set[int]:
    """1-based line numbers that carry a real ``#`` comment token.

    Tokenizing (rather than regex-scanning raw text) keeps pragma
    *examples* inside docstrings from acting — or being reported — as
    pragmas. Falls back to "every line" if tokenization fails (it
    shouldn't: pragmas are only parsed after a successful ast.parse).
    """
    import io
    import tokenize

    out: Set[int] = set()
    reader = io.StringIO("\n".join(lines) + "\n").readline
    try:
        for tok in tokenize.generate_tokens(reader):
            if tok.type == tokenize.COMMENT:
                out.add(tok.start[0])
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return set(range(1, len(lines) + 1))
    return out


def parse_pragmas(lines: Sequence[str]) -> List[dict]:
    """Every ``# repro: allow[...]`` pragma as a record.

    ``{"line": pragma line, "codes": sorted codes/families, "covers":
    lines the pragma suppresses}`` — its own line, plus the next line
    when the pragma stands alone on a comment line. Records (not just
    the derived line map) are kept so the engine can report pragmas
    that matched no finding.
    """
    commented = _comment_lines(lines)
    out: List[dict] = []
    for lineno, text in enumerate(lines, start=1):
        if lineno not in commented:
            continue
        m = _ALLOW_RE.search(text)
        if not m:
            continue
        codes = sorted(
            {tok.strip().upper() for tok in m.group(1).split(",") if tok.strip()}
        )
        if not codes:
            continue
        covers = [lineno]
        if text.lstrip().startswith("#"):
            covers.append(lineno + 1)
        out.append({"line": lineno, "codes": codes, "covers": covers})
    return out


def suppression_map(pragmas: Sequence[dict]) -> Dict[int, FrozenSet[str]]:
    """Pragma records -> {1-based line: codes allowed on that line}."""
    supp: Dict[int, FrozenSet[str]] = {}
    for pragma in pragmas:
        codes = frozenset(pragma["codes"])
        for line in pragma["covers"]:
            supp[line] = supp.get(line, frozenset()) | codes
    return supp


def parse_suppressions(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line number -> codes/families allowed on that line.

    A pragma applies to its own line; if the line holds nothing but the
    comment, it also applies to the next line.
    """
    return suppression_map(parse_pragmas(lines))


def covers_code(code: str, allowed) -> bool:
    """True if ``code`` matches any exact code or family prefix."""
    return any(code == a or code.startswith(a) for a in allowed)


def is_suppressed(finding: "Finding", supp: Dict[int, FrozenSet[str]]) -> bool:
    codes = supp.get(finding.line)
    return bool(codes) and covers_code(finding.code, codes)
