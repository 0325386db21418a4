"""Declarative registry of the paper's experiments.

Every experiment is three pure pieces:

* ``grid(**scale_kwargs) -> list[dict]`` -- the ordered parameter grid.
  Each point is a JSON-serializable dict (numbers, strings, lists,
  ``None``); the dict fully determines the simulation, including its
  random seed, so any point can run anywhere (another process, another
  machine, a cache lookup) and produce the same answer.
* ``point(params) -> dict`` -- run ONE grid point and return a picklable
  summary (plain scalars/lists only -- no live federation objects).
  Must be a module-level function so :mod:`concurrent.futures` can ship
  it to worker processes.
* ``reduce(grid, points) -> ExperimentResult`` -- assemble the paper's
  table/series from the per-point summaries, in grid order.

This module is also the one place that turns a ``--scale`` profile plus
explicit ``--set``/``seed`` overrides into grid kwargs
(:func:`resolve_overrides`); the CLI, the HTTP service and the golden
suite all call it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.config.application import check_total_time
from repro.config.timers import normalize_period
from repro.network.topology import check_node_count

__all__ = [
    "SCALE_PROFILES",
    "Experiment",
    "all_experiments",
    "canonical_params",
    "coerce_set_value",
    "coerce_sets",
    "derive_seed",
    "get",
    "load_all",
    "names",
    "register",
    "resolve_overrides",
]

#: grid overrides per scale profile ("full" = the grids' paper defaults)
SCALE_PROFILES = {
    "full": {},
    "small": {"nodes": 10, "total_time": 7200.0},
    "tiny": {"nodes": 4, "total_time": 1800.0},
}

#: modules whose import registers experiments (one per paper artifact group)
_EXPERIMENT_MODULES = (
    "repro.experiments.table1",
    "repro.experiments.fig6_fig7",
    "repro.experiments.fig8",
    "repro.experiments.fig9",
    "repro.experiments.figure5",
    "repro.experiments.table2_table3",
    "repro.experiments.overhead",
    "repro.experiments.robustness",
    "repro.experiments.failure_sweep",
    "repro.experiments.scalability",
    "repro.experiments.studies",
)


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: declarative grid + pure point + reducer."""

    name: str
    title: str
    grid: Callable[..., list]
    point: Callable[[dict], dict]
    reduce: Callable[[list, list], "object"]
    #: paper artifact(s) this reproduces, e.g. "Table 1" / "Figure 6-7"
    artifact: str = ""
    #: whether ``nodes``/``total_time`` scaling applies (CLI --scale)
    scaled: bool = True
    tags: tuple = field(default_factory=tuple)

    def grid_parameters(self) -> Optional[tuple]:
        """Names of the kwargs this grid takes; ``None`` if it takes any."""
        return _grid_parameters(self.grid)

    def grid_kwargs(self, overrides: Optional[dict] = None) -> dict:
        """Filter ``overrides`` down to the kwargs this grid accepts."""
        overrides = overrides or {}
        accepted = self.grid_parameters()
        if accepted is None:
            return dict(overrides)
        return {k: v for k, v in overrides.items() if k in accepted}

    def build_grid(self, overrides: Optional[dict] = None) -> list:
        """The grid under ``overrides``, every point as :func:`canonical_params`
        returns it -- checked as a whole, in one round trip.

        :class:`ValueError` is the one way a grid is refused, naming the
        ``key=value`` the configuration layer (:data:`_CONFIG_CHECKS`) or the
        grid function (``delays_min=5`` where it iterates a list) refuses,
        or the point that cannot round-trip.
        """
        kwargs = self.grid_kwargs(overrides)
        for key, value in kwargs.items():
            if key in _CONFIG_CHECKS:
                try:
                    _CONFIG_CHECKS[key](value)
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"experiment {self.name!r}: refuses {key}={value!r}: {exc}"
                    ) from None
        try:
            grid = list(self.grid(**kwargs))
        except (TypeError, ValueError) as exc:
            # name the keywords without which the grid builds: the caller's,
            # not the scale profile's
            culprits = [k for k in kwargs if _builds_without(self.grid, kwargs, k)] or kwargs
            named = ", ".join(f"{k}={kwargs[k]!r}" for k in culprits)
            raise ValueError(f"experiment {self.name!r}: refuses {named}: {exc}") from exc
        try:
            return canonical_params(grid)
        except ValueError:
            for index, params in enumerate(grid):  # walk it, to name the culprit
                try:
                    canonical_params(params)
                except ValueError as exc:
                    raise ValueError(
                        f"experiment {self.name!r}, grid point {index}: {exc}"
                    ) from None
            raise


def _builds_without(grid: Callable[..., list], kwargs: dict, key: str) -> bool:
    """Does ``grid`` build from ``kwargs`` less ``key``?"""
    try:
        list(grid(**{k: v for k, v in kwargs.items() if k != key}))
    except (TypeError, ValueError):
        return False
    return True


#: grid keys whose values the configuration layer checks, each with the
#: check (it raises ValueError) -- called once per grid by ``build_grid``
_CONFIG_CHECKS: dict[str, Callable] = {
    "total_time": check_total_time,
    "gc_period": functools.partial(normalize_period, name="gc_period"),
    "nodes": functools.partial(check_node_count, "a cluster"),
    "nodes_per_stage": functools.partial(check_node_count, "a pipeline stage"),
    "nodes_per_cluster": functools.partial(check_node_count, "a cluster"),
}


@functools.lru_cache(maxsize=256)
def _grid_parameters(grid: Callable[..., list]) -> Optional[tuple]:
    """Introspected once per grid *function*, not per experiment name:
    ``dataclasses.replace(exp, grid=other)`` must see ``other``'s parameters."""
    parameters = inspect.signature(grid).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return None
    return tuple(parameters)


_REGISTRY: dict = {}
_LOADED = False


def register(experiment: Experiment) -> Experiment:
    """Add an experiment to the registry.

    Re-registering the same declaration (same grid/point/reduce functions
    by module and qualname, as happens on a module reload) replaces the
    entry; any other name collision is an error so a copy-pasted name
    cannot silently drop an experiment.
    """
    existing = _REGISTRY.get(experiment.name)
    if existing is not None and existing is not experiment:
        def _ident(fn) -> tuple:
            return (fn.__module__, getattr(fn, "__qualname__", fn.__name__))

        same_declaration = all(
            _ident(getattr(existing, attr)) == _ident(getattr(experiment, attr))
            for attr in ("grid", "point", "reduce")
        )
        if not same_declaration:
            raise ValueError(
                f"experiment {experiment.name!r} registered twice "
                f"({existing.point.__module__}.{existing.point.__qualname__} "
                f"and {experiment.point.__module__}.{experiment.point.__qualname__})"
            )
    _REGISTRY[experiment.name] = experiment
    return experiment


def load_all() -> None:
    """Import every experiment module so its ``register`` calls run."""
    global _LOADED
    if _LOADED:
        return
    import importlib

    for module in _EXPERIMENT_MODULES:
        importlib.import_module(module)
    _LOADED = True


def names() -> list:
    load_all()
    return sorted(_REGISTRY)


def all_experiments() -> list:
    load_all()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get(name: str) -> Experiment:
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from None


def resolve_overrides(
    experiment: Experiment,
    scale: str,
    sets: Optional[dict] = None,
    seed: Optional[int] = None,
) -> dict:
    """Grid overrides for one experiment under a scale profile.

    The profile applies only to ``scaled`` experiments, and its keys the
    grid does not take are dropped (that is what makes one profile
    applicable to heterogeneous grids).  Explicit overrides -- typed
    ``sets`` values, then ``seed`` -- are never ignored: a key the grid
    does not take raises :class:`ValueError` naming the keys it does.
    """
    if scale not in SCALE_PROFILES:
        raise ValueError(
            f"unknown scale {scale!r}; choose from {sorted(SCALE_PROFILES)}"
        )
    explicit = dict(sets or {})
    if seed is not None:
        explicit["seed"] = seed
    accepted = experiment.grid_parameters()
    if accepted is not None:
        for key in explicit:
            if key not in accepted:
                raise ValueError(
                    f"experiment {experiment.name!r} does not accept {key}=...; "
                    f"its grid takes: {', '.join(sorted(accepted)) or '(nothing)'}"
                )
    profile = SCALE_PROFILES[scale] if experiment.scaled else {}
    overrides = {
        k: v for k, v in profile.items() if accepted is None or k in accepted
    }
    overrides.update(explicit)
    return overrides


def coerce_set_value(raw: str):
    """Type a ``--set``/query-string value: bool, int, float, JSON lists, else str.

    ``true``/``false`` (any case) become booleans; anything ``json.loads``
    accepts keeps its JSON type (``5`` -> int, ``5.0`` -> float,
    ``[5, 15]`` -> list); everything else stays a string.  Non-finite
    floats raise :class:`ValueError` -- grid points must survive a strict
    JSON round-trip, so NaN/Infinity could never run -- and so does a value
    nested too deeply to decode.
    """
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    try:
        value = json.loads(raw)
        non_finite = _has_non_finite(value)
    except json.JSONDecodeError:
        return raw
    except RecursionError:  # only a value hundreds of brackets long gets here
        raise ValueError(f"override value {raw[:40]!r}... is nested too deeply") from None
    if non_finite:
        raise ValueError(f"override value {raw!r} contains a non-finite number")
    return value


def coerce_sets(raw: dict) -> dict:
    """:func:`coerce_set_value` over ``{key: raw value}``; a refusal names its key."""
    sets = {}
    for key, value in raw.items():
        try:
            sets[key] = coerce_set_value(value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return sets


def _has_non_finite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, list):
        return any(_has_non_finite(v) for v in value)
    if isinstance(value, dict):
        return any(_has_non_finite(v) for v in value.values())
    return False


#: the strict encoding a point must survive: canonical key order, no NaN/Infinity
_encode_strict = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def canonical_params(params: dict | list) -> dict | list:
    """Validate that a grid point round-trips through JSON and return it.

    A grid point's canonical JSON is what its cache key digests, so
    lossless serialization is a hard requirement, not a convention.
    Tuples are normalized to lists (JSON has no tuples); anything else
    that decodes differently than it was written -- non-string dict keys
    (``{1: ...}`` silently becomes ``{"1": ...}``), non-finite floats,
    values JSON has no form for, keys that do not sort -- is rejected
    here, at grid-build time, by a :class:`ValueError` showing the point,
    rather than surfacing later as a cache miss or as a result filed
    under another point's key.  A whole grid (a list of points) validates
    the same way, element for element, in one pass.
    """
    try:
        encoded = _encode_strict(params)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"grid point is not JSON-serializable: {params!r} "
            f"({type(exc).__name__}: {exc})"
        ) from None
    decoded = json.loads(encoded)
    if decoded != params and decoded != _jsonify(params):  # no tuples: no walk
        raise ValueError(
            "grid point does not survive a JSON round-trip "
            f"(non-string dict keys?): {params!r} decoded as {decoded!r}"
        )
    return decoded


def _jsonify(obj):
    """What ``obj`` should look like after a *lossless* JSON round-trip:
    tuples as lists, scalars as they went in (``float(repr(x)) == x`` for
    every finite float, and the strict encoder refused the others)."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def derive_seed(root_seed: int, *components) -> int:
    """Deterministic per-point seed from a root seed and identifying parts.

    Stable across processes and Python versions (unlike ``hash()``), so a
    sweep point computes the same seed no matter which worker runs it.
    """
    material = json.dumps([root_seed, *components], sort_keys=True, default=str)
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)
