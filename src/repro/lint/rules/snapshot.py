"""SNAP001: ``is`` against interned literals across a pickle boundary.

The PR 6 incident, verbatim: ``ClcCoordinator`` and ``GlobalCoordinated``
tracked their two-phase-commit phase as module-level string sentinels and
compared with ``is``.  In a single process CPython interns those strings,
so the identity test works -- until the object crosses a pickle boundary.
A restored snapshot carries *equal but not identical* strings, every
``phase is _COMMITTING`` went quietly false, and each post-restore forced
CLC was dropped without an error.  The bug only surfaced as a trace-digest
mismatch in the resume-equivalence suite, far from its cause.

The rule flags ``is`` / ``is not`` comparisons where either operand is a
``str``/``int`` literal or a module-level name bound to a string constant,
in any module of the snapshot import closure (everything transitively
imported from the snapshot module, the federation, and the protocol
families -- i.e. everything whose instances can be pickled into a
checkpoint).  ``x is None`` / ``x is True`` stay legal: singletons
survive pickling by construction.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import Module, Project

__all__ = ["snap001"]


def _sentinel_description(module: "Module", node: ast.expr) -> Optional[str]:
    """Why this operand is unsafe under ``is``, or ``None`` if it is fine."""
    if isinstance(node, ast.Constant):
        value = node.value
        if isinstance(value, bool) or value is None:
            return None  # real singletons: identity survives pickling
        if isinstance(value, str):
            return f"the string literal {value!r}"
        if isinstance(value, int):
            return f"the int literal {value!r}"
        return None
    if isinstance(node, ast.Name) and node.id in module.str_sentinels:
        return f"the module-level string sentinel {node.id}"
    return None


def snap001(module: "Module", project: "Project") -> Iterator[Tuple[ast.AST, str]]:
    """``is``/``is not`` against str/int literals on the snapshot restore path."""
    if module.name not in project.snapshot_closure():
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Is, ast.IsNot)):
                continue
            lhs = node.left if index == 0 else node.comparators[index - 1]
            rhs = node.comparators[index]
            described = _sentinel_description(module, lhs) or _sentinel_description(
                module, rhs
            )
            if described is None:
                continue
            verb = "is not" if isinstance(op, ast.IsNot) else "is"
            yield (
                node,
                f"`{verb}` against {described}: identity does not survive "
                "the snapshot pickle boundary (unpickled strings/ints are "
                "equal, not identical) -- use ==/!= (the PR 6 restore "
                "divergence)",
            )
