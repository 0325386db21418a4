"""A deterministic budget for the per-message path: calls, not seconds.

Every message walks ``Node.send_raw -> Message -> Fabric.send -> kernel ->
Fabric._deliver -> Node._on_fabric_delivery -> agent.on_receive``, and the
paper's section 5 evaluation is 92% control traffic, so what one message
costs the host bounds how many seeds a study can afford.  Host time is too
noisy to gate in a test; the number of Python-level calls a run makes is
exact, so that is what is budgeted here: per ``Fabric.send``, and in
particular no Python-level hashing or comparing of node ids and message
kinds, and no statistics-registry lookup per message.

The application loop is the other half of an application message: its
compute time, destination cluster and node are drawn with the stdlib's
arithmetic, computed once per process (``repro.app.process``), so the
standard library's ``random.py`` is counted too -- a draw that falls back
to ``Random.choices``/``randint`` shows up there.

Only frames whose code lives under ``src/repro`` or in the standard
library's ``enum.py`` or ``random.py`` are counted (C builtins are not
profiled at all), so interpreter versions agree.
"""

import cProfile
import os
import pstats
import random

import pytest

import repro
from repro.app.workloads import pipeline_workload
from repro.cluster.federation import Federation
from repro.experiments import registry

SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
MESSAGE_PY = os.path.join(SRC_ROOT, "network", "message.py")
FABRIC_PY = os.path.join(SRC_ROOT, "network", "fabric.py")
STATS_PY = os.path.join(SRC_ROOT, "sim", "stats.py")
RANDOM_PY = os.path.abspath(random.__file__)

TOURNAMENT = registry.get("protocol-tournament").build_grid(
    {"nodes": 4, "total_time": 1800.0, "seed": 5}
)


def profiled_calls(fn, *args) -> dict:
    """``{(file, function): calls}`` of one call of ``fn``, Python frames only."""
    profile = cProfile.Profile(builtins=False)
    profile.enable()
    try:
        fn(*args)
    finally:
        profile.disable()
    calls: dict = {}
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _line, func), row in stats.items():
        if (
            filename.startswith(SRC_ROOT)
            or os.path.basename(filename) == "enum.py"
            or os.path.abspath(filename) == RANDOM_PY
        ):
            calls[(filename, func)] = calls.get((filename, func), 0) + row[1]
    return calls


def python_level_comparisons(calls: dict) -> dict:
    """Calls of a ``__hash__``/``__eq__``/``__ne__`` written in Python for
    node ids or message kinds."""
    return {
        key: count
        for key, count in calls.items()
        if key[1] in ("__hash__", "__eq__", "__ne__")
        and (key[0] == MESSAGE_PY or os.path.basename(key[0]) == "enum.py")
    }


def test_a_message_stays_inside_its_call_budget():
    experiment = registry.get("table1")
    params = experiment.build_grid({"nodes": 30, "total_time": 14400.0, "seed": 3})[0]
    calls = profiled_calls(experiment.point, params)
    sends = calls[(FABRIC_PY, "send")]
    assert sends == 2643  # the run is exact for its seed: so is the budget
    assert sum(calls.values()) / sends <= 16
    assert python_level_comparisons(calls) == {}
    # bounded by the number of metrics, not by the number of messages
    assert calls[(STATS_PY, "_get")] <= 250


def test_an_application_message_stays_inside_its_call_budget():
    """An application-heavy run: nearly every send is an application send."""
    topology, application, timers = pipeline_workload(
        nodes_per_stage=4, n_stages=3, total_time=600.0, mean_compute=5.0
    )
    fed = Federation(topology, application, timers, protocol="hc3i", seed=3)
    calls = profiled_calls(fed.run)
    sends = calls[(FABRIC_PY, "send")]
    assert sends == 1462  # the run is exact for its seed: so is the budget
    assert sum(calls.values()) / sends <= 16
    # seeding a stream's Random is all random.py may cost: no draw goes
    # through Random.choices/randint/randrange
    in_random_py = sum(n for (filename, _func), n in calls.items() if filename == RANDOM_PY)
    assert in_random_py <= 2 * len(fed.streams)


@pytest.mark.parametrize("params", TOURNAMENT, ids=[p["label"] for p in TOURNAMENT])
def test_no_family_hashes_ids_or_kinds_in_python(params):
    calls = profiled_calls(registry.get("protocol-tournament").point, params)
    assert calls[(FABRIC_PY, "send")] > 200
    assert python_level_comparisons(calls) == {}
