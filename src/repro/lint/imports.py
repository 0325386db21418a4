"""Static import graph over a lint :class:`~repro.lint.engine.Project`.

SNAP001 needs to know which modules can contribute objects to a
simulator snapshot: anything transitively imported from the snapshot
module, the federation (whose object graph *is* the pickled payload),
and the protocol families the federation instantiates by name.  The
closure is computed from the ASTs alone -- including imports nested
inside functions, because the restore path uses exactly such lazy
imports -- so the linter never has to execute repository code.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import Module, Project

__all__ = ["module_imports", "transitive_closure"]


def _resolve_relative(module: "Module", node: ast.ImportFrom) -> str:
    """Absolute dotted prefix for a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    parts = module.name.split(".")
    # level 1 = the containing package; each extra level climbs one more
    anchor = parts[: len(parts) - node.level]
    if node.module:
        anchor.append(node.module)
    return ".".join(anchor)


def module_imports(module: "Module") -> Set[str]:
    """Every dotted name ``module`` imports, at any nesting depth.

    ``from pkg import name`` contributes both ``pkg`` and ``pkg.name``:
    whether ``name`` is a submodule or an attribute is resolved later
    against the project (unknown names simply match nothing).
    """
    names: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(module, node)
            if base:
                names.add(base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                names.add(f"{base}.{alias.name}" if base else alias.name)
    return names


def transitive_closure(project: "Project", roots: Sequence[str]) -> Set[str]:
    """Names of project modules reachable from ``roots`` via imports."""
    queue = [root for root in roots if root in project.by_name]
    closure: Set[str] = set(queue)
    while queue:
        current = project.by_name[queue.pop()]
        for imported in module_imports(current):
            if imported in project.by_name and imported not in closure:
                closure.add(imported)
                queue.append(imported)
    return closure
