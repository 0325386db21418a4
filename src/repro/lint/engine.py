"""The ``repro lint`` engine: parse, scope, run rules, apply suppressions.

The engine is deliberately small: it discovers Python files, parses each
one once with :mod:`ast`, wraps the tree in a :class:`Module` (source
lines, dotted module name, parent links, suppression comments), bundles
the modules into a :class:`Project` (so cross-file rules like SNAP001's
import closure can see the whole tree), and runs every rule over every
module.  All policy lives in the rules
(:mod:`repro.lint.rules`) and in :class:`LintConfig`; the engine knows
nothing about determinism or snapshots.

Suppressions are per-line comments::

    value = hash(key)  # repro-lint: ignore[DET002] -- process-local dict key

A suppression names the rule ids it silences (comma-separated inside the
brackets) and applies to findings reported *on that physical line*.
Blanket suppressions are deliberately impossible: every ignore names its
rule, so a grep for ``repro-lint: ignore`` enumerates every waived
finding in the tree, with its stated justification next to it.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.lint.rules import RULES

__all__ = [
    "Finding",
    "LintConfig",
    "LintError",
    "LintReport",
    "Module",
    "Project",
    "load_project",
    "run_lint",
]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


class LintError(RuntimeError):
    """A file could not be linted (unreadable, unparsable)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: display path (relative to the invocation cwd when possible)
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass(frozen=True)
class LintConfig:
    """Where each scoped rule applies (dotted module-name prefixes).

    The defaults describe *this* repository; fixture tests substitute
    their own scopes so every rule can be exercised against seeded
    violations without touching the real tree.
    """

    #: DET001/DET002: modules whose behavior feeds dispatch digests
    determinism_scopes: Tuple[str, ...] = (
        "repro.sim",
        "repro.core",
        "repro.baselines",
        "repro.network",
    )
    #: SNAP001: roots of the snapshot/restore import closure.  Anything
    #: transitively imported from these can hold state that crosses a
    #: pickle boundary, where ``is`` on interned literals breaks (PR 6).
    snapshot_roots: Tuple[str, ...] = (
        "repro.sim.snapshot",
        "repro.cluster.federation",
        "repro.baselines",
    )

    @staticmethod
    def in_scope(name: str, scopes: Sequence[str]) -> bool:
        return any(name == s or name.startswith(s + ".") for s in scopes)


class Module:
    """One parsed source file plus the lookups rules keep needing."""

    def __init__(self, path: Path, display_path: str, name: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.name = name
        self.source = source
        self.lines = source.splitlines()
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise LintError(f"{display_path}: cannot parse: {exc}") from None
        self.suppressions = self._parse_suppressions(self.lines)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None
        self._str_sentinels: Optional[Set[str]] = None

    @staticmethod
    def _parse_suppressions(lines: List[str]) -> Dict[int, Set[str]]:
        out: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(lines, 1):
            match = _SUPPRESS_RE.search(line)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")}
                out[lineno] = {r for r in rules if r}
        return out

    def suppressed(self, finding: Finding) -> bool:
        return finding.rule in self.suppressions.get(finding.line, ())

    # ------------------------------------------------------------- lookups

    @property
    def parents(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent links for the whole tree (built on first use)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        parents = self.parents
        current = parents.get(node)
        while current is not None:
            yield current
            current = parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    @property
    def str_sentinels(self) -> Set[str]:
        """Module-level names bound to string constants (``_IDLE = "idle"``)."""
        if self._str_sentinels is None:
            sentinels: Set[str] = set()
            for stmt in self.tree.body:
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                if (
                    value is not None
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    for target in targets:
                        if isinstance(target, ast.Name):
                            sentinels.add(target.id)
            self._str_sentinels = sentinels
        return self._str_sentinels

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=rule,
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


class Project:
    """Every module in one lint run, addressable by dotted name."""

    def __init__(self, modules: List[Module], config: LintConfig) -> None:
        self.modules = modules
        self.config = config
        self.by_name: Dict[str, Module] = {m.name: m for m in modules}
        self._snapshot_closure: Optional[Set[str]] = None

    def snapshot_closure(self) -> Set[str]:
        """Module names transitively imported from ``config.snapshot_roots``."""
        if self._snapshot_closure is None:
            from repro.lint.imports import transitive_closure

            self._snapshot_closure = transitive_closure(
                self, self.config.snapshot_roots
            )
        return self._snapshot_closure


# --------------------------------------------------------------- discovery


def _module_name(path: Path) -> str:
    """Dotted module name, climbing enclosing packages via ``__init__.py``."""
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or path.stem


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def discover(paths: Sequence) -> List[Path]:
    """Every ``*.py`` under ``paths`` (files pass through), sorted, deduped."""
    found: List[Path] = []
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise LintError(f"no such file or directory: {path}")
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                found.append(candidate)
    return found


def load_project(paths: Sequence, config: Optional[LintConfig] = None) -> Project:
    config = config if config is not None else LintConfig()
    modules = []
    for path in discover(paths):
        source = path.read_text(encoding="utf-8")
        modules.append(Module(path, _display_path(path), _module_name(path), source))
    return Project(modules, config)


# ------------------------------------------------------------------ running


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)  #: unsuppressed
    suppressed: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: Tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [f.as_dict() for f in self.suppressed],
            "files_checked": self.files_checked,
            "rules_run": list(self.rules_run),
        }


def run_lint(paths: Sequence, config: Optional[LintConfig] = None) -> LintReport:
    """Lint ``paths`` with every rule; findings are split by suppression state."""
    project = load_project(paths, config)
    report = LintReport(files_checked=len(project.modules), rules_run=tuple(sorted(RULES)))
    for module in project.modules:
        for rule_id, check in RULES.items():
            for node, message in check(module, project):
                finding = module.finding(rule_id, node, message)
                if module.suppressed(finding):
                    report.suppressed.append(finding)
                else:
                    report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    report.suppressed.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
