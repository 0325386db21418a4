"""``src/repro`` ships what an entry point reaches.

Every public module-level function/class and every public method defined
under ``src/repro`` must be *referenced* at least once outside its own
definition somewhere in ``src/ examples/ bench/ tools/ docs/ README.md`` --
in code as a name, an attribute, a keyword or an import in a
non-``__init__`` module, in ``docs/`` and ``README.md`` as a word (the
places that tell a user what to call).  ``__all__`` lists and package
``__init__.py`` re-exports do not count: they are how an unreached name
*looks* reached.  Neither do string constants in code -- a docstring that
mentions a name, a dict key that happens to spell it -- nor anything under
``tests/``: a function only its own test calls is the dead weight this file
exists to refuse.

Exempt by construction: dunders; a method that overrides one a base class
defined in ``src/`` declares (the base's name is the reference); and a
definition handed to a decorator defined in ``src/`` (a registry reaches
it by its string key -- ``protocol="clc-cic"`` in a scenario file).

Matching is by bare name, so it errs towards "reached": two definitions
that share a name vouch for each other.  What it does catch is the common
case -- a helper, method or module whose last caller left while its test
kept it looking alive.

What stays unreached on purpose is listed in :data:`ALLOWLIST` with the
reason; an entry that is reached again (or gone) fails too.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path
from typing import AbstractSet, Dict, FrozenSet, Iterator, Optional, Set, Tuple

REPO_ROOT = Path(__file__).parent.parent
SRC = REPO_ROOT / "src" / "repro"

#: where a reference counts: code an entry point runs, and prose that tells
#: a user what to call
CODE_ROOTS = tuple(REPO_ROOT / root for root in ("src", "examples", "bench", "tools"))
PROSE = (REPO_ROOT / "docs", REPO_ROOT / "README.md")

#: qualified name -> why it stays although nothing outside ``tests/`` names
#: it.  Safety/reference code and pieces of the paper's model only.
ALLOWLIST: Dict[str, str] = {
    "repro.cluster.storage.StableStorage.recoverable": (
        "§2.1's question -- does a CLC survive these simultaneous node "
        "losses; the ROADMAP hostile-conditions item (a), loss of a stored "
        "replica, asks it during recovery"
    ),
    "repro.config.application.ApplicationConfig.expected_messages": (
        "the Table 1 calibration reference the simulated counts are held to"
    ),
    "repro.app.process.exchange_factory": (
        "the paper's §2.1 code-coupling exchange workload (request/reply "
        "between clusters); part of the model, selected by app_factory"
    ),
}


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _python_files(root: Path) -> list:
    return sorted(root.rglob("*.py"))


def _words(
    node: ast.AST, skip_ids: AbstractSet[int] = frozenset(), imports: bool = True
) -> Iterator[str]:
    """Every name used under ``node``: loads, attributes, keywords, imports.
    String constants are not uses: what a registry looks up by string is
    exempt where it is defined (see ``wanted``)."""
    for child in ast.walk(node):
        if id(child) in skip_ids:
            continue
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.keyword) and child.arg:
            yield child.arg
        elif isinstance(child, ast.ImportFrom) and imports:
            yield from (alias.name for alias in child.names)


def _all_list_nodes(tree: ast.Module) -> Set[int]:
    """ids of every node inside a module-level ``__all__`` assignment."""
    inside: Set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                inside.update(id(n) for n in ast.walk(node))
    return inside


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reference_counts(code_roots: Tuple[Path, ...], prose: Tuple[Path, ...]) -> Counter:
    counts: Counter = Counter()
    for root in code_roots:
        for path in _python_files(root):
            tree = _parse(path)
            # a package __init__'s imports are re-exports, not uses
            counts.update(
                _words(tree, _all_list_nodes(tree), imports=path.name != "__init__.py")
            )
    for target in prose:
        for path in [target] if target.is_file() else sorted(target.rglob("*.md")):
            counts.update(_WORD.findall(path.read_text(encoding="utf-8")))
    return counts


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _src_index(trees: Dict[Path, ast.Module]):
    """(class name -> node, names of every function defined in src)."""
    classes: Dict[str, ast.ClassDef] = {}
    functions: Set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = node
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.add(node.name)
    return classes, functions


def _bare(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _inherited_methods(cls: ast.ClassDef, classes: Dict[str, ast.ClassDef]) -> Set[str]:
    """Methods declared by any ``src/`` ancestor of ``cls``."""
    inherited: Set[str] = set()
    pending, seen = [cls], {cls.name}
    while pending:
        for base in pending.pop().bases:
            name = _bare(base)
            if name in classes and name not in seen:
                seen.add(name)
                inherited |= {n.name for n in classes[name].body if isinstance(n, _DEFS)}
                pending.append(classes[name])
    return inherited


def _definitions(src: Path) -> Iterator[Tuple[str, str, int]]:
    """(qualified name, bare name, self-references) of every public
    function, class and method under ``src`` that has to earn its place."""
    trees = {path: _parse(path) for path in _python_files(src)}
    classes, functions = _src_index(trees)

    def wanted(node: ast.AST, inherited: AbstractSet[str] = frozenset()) -> bool:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            return False
        if node.name in inherited:
            return False  # the base class's declaration is the reference
        # handed to a src/ decorator (a registry): reached by its string key
        return not any(_bare(d) in functions for d in node.decorator_list)

    for path, tree in trees.items():
        module = _module_name(path, src)
        for node in tree.body:
            if wanted(node):
                yield f"{module}.{node.name}", node.name, Counter(_words(node))[node.name]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                inherited = _inherited_methods(node, classes)
                for item in node.body:
                    if wanted(item, inherited):
                        yield (
                            f"{module}.{node.name}.{item.name}",
                            item.name,
                            Counter(_words(item))[item.name],
                        )


@functools.cache
def unreached(
    src: Path = SRC,
    code_roots: Tuple[Path, ...] = CODE_ROOTS,
    prose: Tuple[Path, ...] = PROSE,
) -> FrozenSet[str]:
    """Qualified names under ``src`` that nothing outside their own
    definition refers to."""
    counts = _reference_counts(code_roots, prose)
    return frozenset(
        qualified
        for qualified, name, own in _definitions(src)
        if counts[name] - own <= 0
    )


def test_every_public_name_is_reached_from_an_entry_point():
    missing = sorted(unreached() - set(ALLOWLIST))
    assert not missing, (
        "defined under src/repro but referenced nowhere in src/ examples/ "
        "bench/ tools/ docs/ README.md (delete it with its tests, or add it "
        "to ALLOWLIST with a reason):\n  " + "\n  ".join(missing)
    )


def test_a_docstring_does_not_vouch_for_a_name_in_its_own_module():
    """``tests/fixtures/reachability/dead_but_documented.py`` names its
    uncalled function in the module docstring and in the function's own."""
    fixture = REPO_ROOT / "tests" / "fixtures" / "reachability"
    assert unreached(src=fixture, code_roots=(fixture,), prose=()) == {
        "reachability.dead_but_documented.orphan"
    }


def test_allowlist_is_not_stale():
    """An allowlisted name must exist and must still need its waiver."""
    stale = sorted(set(ALLOWLIST) - unreached())
    assert not stale, f"reached (or gone) now; drop from ALLOWLIST: {stale}"
