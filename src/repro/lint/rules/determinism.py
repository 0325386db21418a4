"""DET001/DET002: unseeded nondeterminism in the simulation substrate.

The repository's correctness story is *per-seed byte-identical replay*:
golden dispatch-trace digests, cross-backend equivalence, and
snapshot forks all assert that the same seed produces the same event
stream, bit for bit.  Any read of process-global entropy inside the
modules that feed that stream -- the global :mod:`random` PRNG, an
unseeded ``random.Random()``, wall-clock time, the process environment,
hash-randomized set order -- silently breaks the contract for some
future edit, and the failure shows up as a golden-digest mismatch pages
away from its cause.  These rules make the hazard a lint error at the
line that introduces it.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import Module, Project

__all__ = ["det001", "det002"]

#: module-level functions of :mod:`random` that draw from (or reseed) the
#: shared global PRNG; ``random.Random(seed)`` instances are the sanctioned
#: alternative (see ``repro/sim/random.py``)
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)

#: generator classes of :mod:`random`: ``Random()`` without a seed and any
#: ``SystemRandom`` (which ignores its seed) draw their state from os.urandom
_RANDOM_CLASSES = ("Random", "SystemRandom")

#: wall-clock reads; simulated time lives on the kernel, never the host
_WALL_CLOCK_FNS = frozenset(
    {
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "time",
        "time_ns",
    }
)

_DATETIME_NOW_FNS = frozenset({"now", "today", "utcnow"})

#: hazardous stdlib module -> the alias-table key for names bound to it
_MODULE_KEYS = {
    "random": "random_mod",
    "time": "time_mod",
    "datetime": "datetime_mod",
    "os": "os_mod",
}

Hazard = Tuple[ast.AST, str]


def dotted_chain(node: ast.expr) -> Tuple[str, ...]:
    """``a.b.c`` -> ``("a", "b", "c")``; empty tuple for anything fancier."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()


def _import_aliases(tree: ast.Module) -> Dict[str, Set[str]]:
    """Names bound in this module to the hazardous stdlib modules/functions."""
    aliases: Dict[str, Set[str]] = {
        "random_mod": set(),
        "time_mod": set(),
        "datetime_mod": set(),
        "datetime_cls": set(),
        "os_mod": set(),
        "environ": set(),
        "getenv": set(),
        "random_fn": set(),  # from random import shuffle [as s]
        "time_fn": set(),  # from time import time [as t]
        "Random": set(),  # from random import Random [as R]
        "SystemRandom": set(),
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import os.path`` binds ``os``; ``import os.path as p`` binds os.path
                module = alias.name if alias.asname else alias.name.split(".")[0]
                if module in _MODULE_KEYS:
                    aliases[_MODULE_KEYS[module]].add(alias.asname or module)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module == "random" and alias.name in _GLOBAL_RANDOM_FNS:
                    aliases["random_fn"].add(bound)
                elif node.module == "random" and alias.name in _RANDOM_CLASSES:
                    aliases[alias.name].add(bound)
                elif node.module == "time" and alias.name in _WALL_CLOCK_FNS:
                    aliases["time_fn"].add(bound)
                elif node.module == "datetime" and alias.name in ("datetime", "date"):
                    aliases["datetime_cls"].add(bound)
                elif node.module == "os" and alias.name == "environ":
                    aliases["environ"].add(bound)
                elif node.module == "os" and alias.name == "getenv":
                    aliases["getenv"].add(bound)
    return aliases


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _random_class(chain: Tuple[str, ...], aliases: Dict[str, Set[str]]) -> Optional[str]:
    """``"Random"``/``"SystemRandom"`` when ``chain`` names that class."""
    if len(chain) == 2 and chain[0] in aliases["random_mod"] and chain[1] in _RANDOM_CLASSES:
        return chain[1]
    for cls in _RANDOM_CLASSES:
        if len(chain) == 1 and chain[0] in aliases[cls]:
            return cls
    return None


def det001(module: "Module", project: "Project") -> Iterator[Hazard]:
    """Unseeded nondeterminism in simulation-facing code."""
    config = project.config
    if not config.in_scope(module.name, config.determinism_scopes):
        return
    aliases = _import_aliases(module.tree)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            yield from _check_call(node, aliases)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                yield (
                    node.iter,
                    "iteration over a bare set: element order depends on "
                    "PYTHONHASHSEED; sort it (or use a list/dict) before "
                    "it can feed scheduling or digests",
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                if _is_set_expr(gen.iter):
                    yield (
                        gen.iter,
                        "comprehension over a bare set: element order "
                        "depends on PYTHONHASHSEED; sort it first",
                    )
    # os.environ reads (any expression context, not just calls)
    for node in ast.walk(module.tree):
        chain = dotted_chain(node) if isinstance(node, ast.Attribute) else ()
        if (
            len(chain) == 2 and chain[0] in aliases["os_mod"] and chain[1] == "environ"
        ) or (
            isinstance(node, ast.Name)
            and node.id in aliases["environ"]
            and isinstance(node.ctx, ast.Load)
        ):
            yield (
                node,
                "os.environ read in simulation-facing code: behavior "
                "must be a function of explicit parameters and the seed, "
                "not of the worker's environment",
            )


def _check_call(node: ast.Call, aliases: Dict[str, Set[str]]) -> Iterator[Hazard]:
    chain = dotted_chain(node.func)
    if not chain:
        return
    head, tail = chain[0], chain[-1]
    cls = _random_class(chain, aliases)
    if len(chain) == 2 and head in aliases["random_mod"] and tail in _GLOBAL_RANDOM_FNS:
        yield (
            node,
            f"random.{tail}() uses the process-global PRNG; draw from a "
            "seeded random.Random stream (see repro.sim.random) instead",
        )
    elif len(chain) == 1 and head in aliases["random_fn"]:
        yield (
            node,
            f"{head}() draws from the process-global PRNG; use a seeded "
            "random.Random stream (see repro.sim.random) instead",
        )
    elif cls is not None and (
        cls == "SystemRandom"
        or not (node.args or any(k.arg == "x" for k in node.keywords))
    ):
        yield (
            node,
            f"{cls}() here is seeded from os.urandom, not from the run; "
            "construct random.Random(seed) (see repro.sim.random) instead",
        )
    elif len(chain) == 2 and head in aliases["time_mod"] and tail in _WALL_CLOCK_FNS:
        yield (
            node,
            f"time.{tail}() reads the wall clock inside the simulation "
            "substrate; simulated time lives on the kernel (sim.now)",
        )
    elif len(chain) == 1 and head in aliases["time_fn"]:
        yield (
            node,
            f"{head}() reads the wall clock inside the simulation "
            "substrate; simulated time lives on the kernel (sim.now)",
        )
    elif tail in _DATETIME_NOW_FNS and (
        (len(chain) == 3 and head in aliases["datetime_mod"])
        or (len(chain) == 2 and head in aliases["datetime_cls"])
    ):
        yield (
            node,
            f"datetime {tail}() reads the wall clock inside the "
            "simulation substrate; results must not depend on when "
            "the run happened",
        )
    elif (len(chain) == 2 and head in aliases["os_mod"] and tail == "getenv") or (
        len(chain) == 1 and head in aliases["getenv"]
    ):
        yield (
            node,
            f"{'.'.join(chain)}() in simulation-facing code: behavior must "
            "be a function of explicit parameters and the seed",
        )
    elif (
        len(chain) == 1
        and head in ("list", "tuple", "enumerate")
        and node.args
        and _is_set_expr(node.args[0])
    ):
        yield (
            node,
            f"{head}() over a bare set materializes hash-seed-dependent "
            "order; wrap the set in sorted() first",
        )


def det002(module: "Module", project: "Project") -> Iterator[Hazard]:
    """``hash()``/``id()`` values that can reach ordering or persisted output."""
    config = project.config
    if not config.in_scope(module.name, config.determinism_scopes):
        return
    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("hash", "id")
            and node.args
        ):
            continue
        enclosing = module.enclosing_function(node)
        if enclosing is not None and enclosing.name == "__hash__":
            # the one place hash() is the point; dict/set placement is
            # process-local by construction
            continue
        yield (
            node,
            f"{node.func.id}() is process-specific (PYTHONHASHSEED / "
            "addresses): its value must never influence event ordering "
            "or persisted output; derive a stable key instead",
        )
