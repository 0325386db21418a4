"""Golden trace-equivalence capture over the experiment registry.

Every registered experiment, run at tiny scale with a fixed seed, produces
a deterministic dispatch stream in the simulation kernel.  This module
folds that stream into one :class:`~repro.sim.trace_digest.TraceDigest`
per experiment, which is what the golden suite
(``tests/test_trace_golden.py``) compares against the committed digests in
``tests/golden/trace_digests.json``.

The cross-backend equivalence suite (``tests/test_cross_backend.py``)
runs the same tiny grids with the same seeds (:func:`golden_overrides`),
so a digest divergence can be cross-checked against a result-level
divergence directly.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments import registry
from repro.sim import trace_digest

__all__ = [
    "GOLDEN_SEED",
    "all_experiment_digests",
    "experiment_digest",
    "golden_overrides",
]

#: fixed grid seed for experiments whose grid takes one
GOLDEN_SEED = 7

#: non-scaled experiments that still accept shrinking kwargs
EXTRA_TINY = {"scaling": {"shapes": [[2, 4], [3, 3]], "total_time": 900.0}}


def golden_overrides(experiment) -> dict:
    """Tiny-scale grid overrides for one experiment (seed pinned)."""
    accepted = experiment.grid_parameters()
    takes_seed = accepted is None or "seed" in accepted
    return registry.resolve_overrides(
        experiment,
        "tiny",
        sets=EXTRA_TINY.get(experiment.name),
        seed=GOLDEN_SEED if takes_seed else None,
    )


def experiment_digest(name: str, overrides: Optional[dict] = None) -> dict:
    """Run one experiment's tiny grid serially under digest capture.

    Returns ``{"digest": hex, "events": n, "points": k}``.  The digest
    covers the concatenated dispatch streams of every grid point, in grid
    order -- any reordering, added event, dropped event or timestamp drift
    anywhere in the whole sweep changes it.
    """
    experiment = registry.get(name)
    if overrides is None:
        overrides = golden_overrides(experiment)
    grid = experiment.build_grid(overrides)
    with trace_digest.capture() as digest:
        for params in grid:
            experiment.point(params)
    summary = digest.summary()
    summary["points"] = len(grid)
    return summary


def all_experiment_digests() -> dict:
    """Digest every registered experiment (sorted by name)."""
    return {name: experiment_digest(name) for name in registry.names()}
