"""A deterministic budget for the warm sweep path: calls, not seconds.

A grid is computed once and re-read every time a figure is rendered, a
study re-ranked or ``repro serve`` asked for a point, so what a *cached*
point costs bounds how cheap a re-read is.  A warm point should cost one
key (one JSON encode of its params, one copy of a SHA-256 already fed the
code hash and experiment name) and one raw read (one ``os.open``, no
``stat``, no ``Path`` arithmetic, no buffered file object); validating the
grid is paid once per pass, not per point.  Host time is too noisy to gate
in a test; the number of calls a pass makes is exact, so that is what is
budgeted here, as ``tests/test_hot_path.py`` does for the per-message path.
"""

import cProfile
import dataclasses
import os
import pstats

from repro.experiments import registry
from repro.experiments.cache import ResultCache
from repro.experiments.runner import run_experiment

POINTS = 50
PASSES = 5


def _grid() -> list:
    return [{"nodes": 2, "total_time": 300.0, "seed": seed} for seed in range(POINTS)]


def test_a_warm_point_stays_inside_its_call_budget(tmp_path):
    experiment = dataclasses.replace(
        registry.get("table1"), name="warm-path-budget", grid=_grid, scaled=False
    )
    cache = ResultCache(tmp_path)
    cold = run_experiment(experiment, cache=cache)
    assert (cold.cache_hits, cold.executed) == (0, POINTS)

    profile = cProfile.Profile()
    profile.enable()
    try:
        reports = [run_experiment(experiment, cache=cache) for _ in range(PASSES)]
    finally:
        profile.disable()
    for report in reports:
        assert (report.cache_hits, report.executed) == (POINTS, 0)
        assert report.result.render() == cold.result.render()

    calls: dict = {}  # {("package/file.py", function): calls}; a C builtin's file is "~"
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, func), row in stats.items():
        key = ("/".join(filename.split(os.sep)[-2:]), func)
        calls[key] = calls.get(key, 0) + row[1]

    def builtin(fragment: str) -> int:
        """Calls of the C builtins whose name (``<built-in method io.open>``,
        ``<built-in method _hashlib.openssl_sha256>``) contains ``fragment``."""
        return sum(n for (file, func), n in calls.items() if file == "~" and fragment in func)

    warm = POINTS * PASSES
    once = 20 * PASSES  # what a pass may spend once, whatever the size of its grid
    assert sum(calls.values()) / warm <= 20  # 17.9 measured
    # one key per point: one encode of the params and one copy of the digest
    # its code hash and experiment name were fed once; validating the grid is
    # one more encode and one decode per pass
    assert warm <= calls[("json/encoder.py", "encode")] <= warm + once
    assert calls[("~", "<method 'copy' of '_hashlib.HASH' objects>")] == warm
    assert builtin("sha256") <= PASSES
    assert calls.get(("json/__init__.py", "loads"), 0) <= once
    # one read per point: the open finds the entry or it does not, no stat
    # first, and no buffered file object around the descriptor
    assert builtin("posix.stat") == builtin("posix.lstat") == 0
    assert builtin("posix.open") == warm
    assert builtin("io.open") == 0
    assert sum(n for (file, _), n in calls.items() if "pathlib" in file) <= PASSES
