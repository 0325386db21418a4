"""The determinism contract, checked where it can break: at run time.

Results are byte-identical per seed (ROADMAP aim 3) only if every bit of
entropy the simulator sees comes from its per-run seeded streams
(``repro.sim.random``).  This module is also a script: run as
``python tests/test_determinism_contract.py`` it installs entropy
tripwires *before* ``repro`` is imported -- so a ``from time import
perf_counter`` binding made at import time is caught too -- and then

* digests every registered experiment and compares each against
  ``tests/golden/trace_digests.json``, and
* runs the oracle's crash matrix (every protocol family, two node crashes,
  seeds 1 and 2; ``tests/test_consistency_oracle.py``), which reaches the
  failure and recovery paths the goldens never enter.

A tripwire records an entropy read whose first caller outside ``os``,
``collections.abc`` and ``random`` (the stdlib layers ``os.getenv`` and an
unseeded ``Random()`` go through) is a simulator module:
``repro.{sim,core,baselines,network,cluster,app}``.  The tests run the
script under three ``PYTHONHASHSEED`` values and fail on any trip (named
``module:line``) and on any digest mismatch.  A read the goldens do see
fails them; a wall-clock or environment read whose value is unused passes
them and only the tripwire catches it.  The last test shows it does.
"""

from __future__ import annotations

import builtins
import datetime
import json
import os
import random
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
GOLDEN_PATH = REPO / "tests" / "golden" / "trace_digests.json"

#: the modules whose entropy reads the tripwires record
SCOPE = tuple(
    f"repro.{package}"
    for package in ("sim", "core", "baselines", "network", "cluster", "app")
)
#: stdlib layers between a caller and the read it asked for
PASS_THROUGH = {"os", "_collections_abc", "collections.abc", "random"}

#: ``module:line`` of every tripped read, with what was read
TRIPS: set = set()


def _trip(what: str) -> None:
    """Record ``what`` if the tripwire's caller is a simulator module."""
    frame = sys._getframe(2)  # the caller of the tripwire
    while frame is not None and frame.f_globals.get("__name__") in PASS_THROUGH:
        frame = frame.f_back
    if frame is None:
        return
    module = frame.f_globals.get("__name__") or ""
    if module not in SCOPE and not module.startswith(tuple(s + "." for s in SCOPE)):
        return
    if what in ("hash", "id") and frame.f_code.co_name == "__hash__":
        return
    TRIPS.add(f"{module}:{frame.f_lineno} {what}")


def _wire(owner, name: str, what: str) -> None:
    original = getattr(owner, name)

    def tripwire(*args, **kwargs):
        _trip(what)
        return original(*args, **kwargs)

    setattr(owner, name, tripwire)


def install_tripwires() -> None:
    # the process-global PRNG: every module-level function of ``random``
    for name in random.__all__:
        if getattr(getattr(random, name), "__self__", None) is random._inst:
            _wire(random, name, f"random.{name}")

    # ``Random()`` without a seed calls ``seed(None)``: os.urandom
    seed = random.Random.seed

    def seed_tripwire(self, a=None, version=2):
        if a is None:
            _trip("Random.seed(None)")
        return seed(self, a, version)

    random.Random.seed = seed_tripwire

    class SystemRandom(random.SystemRandom):
        def __init__(self, *args):
            _trip("SystemRandom")
            super().__init__(*args)

    random.SystemRandom = SystemRandom

    for name in ("time", "perf_counter", "monotonic"):
        _wire(time, name, f"time.{name}")
        _wire(time, f"{name}_ns", f"time.{name}_ns")

    class DateTime(datetime.datetime):
        @classmethod
        def now(cls, tz=None):
            _trip("datetime.now")
            return super().now(tz)

    datetime.datetime = DateTime

    # every read of os.environ -- get, getenv, ``in``, items -- indexes it
    _wire(type(os.environ), "__getitem__", "os.environ")

    # ``hash`` of a str is PYTHONHASHSEED-randomized, ``id`` is an address
    _wire(builtins, "hash", "hash")
    _wire(builtins, "id", "id")


# A wall-clock read in the fabric's send path, compiled into the fabric
# module's globals so the tripwire sees ``repro.network.fabric`` call it.
# The value is unused: the goldens cannot see it.
TIME_READ_IN_FABRIC = """
from time import time as _wall_clock
_untimed_send = Fabric.send

def _timed_send(self, msg):
    _wall_clock()
    return _untimed_send(self, msg)

Fabric.send = _timed_send
"""


def contract_run(inject_time_read: bool) -> dict:
    """The script's body: every trip and mismatch of one checked run."""
    install_tripwires()
    from repro.analysis.oracle import assert_consistent
    from repro.experiments.golden import all_experiment_digests
    from repro.sim import trace_digest
    from tests.test_consistency_oracle import PROTOCOL_CASES, run_crashes

    if inject_time_read:
        from repro.network import fabric

        code = compile(TIME_READ_IN_FABRIC, fabric.__file__, "exec")
        exec(code, vars(fabric))

    golden = json.loads(GOLDEN_PATH.read_text())
    digests = all_experiment_digests()
    with trace_digest.capture() as crash_digest:
        for protocol, options in PROTOCOL_CASES:
            for seed in (1, 2):
                assert_consistent(*run_crashes(protocol, options, seed))
    return {
        "trips": sorted(TRIPS),
        "mismatched": sorted(
            name for name in set(golden) | set(digests)
            if golden.get(name) != digests.get(name)
        ),
        "crash_matrix": crash_digest.summary(),
    }


HASH_SEEDS = ("0", "1", "12345")

#: run name -> (PYTHONHASHSEED, script flags); the four run concurrently
RUNS = {
    **{seed: (seed,) for seed in HASH_SEEDS},
    "time-read": ("0", "--inject-time-read"),
}


@pytest.fixture(scope="module")
def runs() -> dict:
    procs = {
        name: subprocess.Popen(
            [sys.executable, __file__, *flags],
            cwd=REPO,
            env={
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)]),
            },
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for name, (hash_seed, *flags) in RUNS.items()
    }
    outputs = {name: proc.communicate() for name, proc in procs.items()}
    for name, proc in procs.items():
        assert proc.returncode == 0, outputs[name][1]
    return {name: json.loads(out.splitlines()[-1]) for name, (out, _) in outputs.items()}


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_no_entropy_read_and_every_golden_matches(runs, hash_seed):
    run = runs[hash_seed]
    assert run["trips"] == [], "unseeded entropy read by the simulator"
    assert run["mismatched"] == [], "golden digests diverged"
    assert run["crash_matrix"]["events"] > 0


def test_crash_matrix_is_hash_seed_independent(runs):
    assert len({json.dumps(runs[seed]["crash_matrix"]) for seed in HASH_SEEDS}) == 1


def test_a_wall_clock_read_the_goldens_cannot_see_trips(runs):
    """Non-vacuity: an unused ``time.time()`` in ``Fabric.send`` keeps every
    digest and still fails the contract, naming the fabric."""
    run = runs["time-read"]
    assert run["mismatched"] == []
    assert run["trips"]
    assert all(
        trip.startswith("repro.network.fabric:") and trip.endswith(" time.time")
        for trip in run["trips"]
    ), run["trips"]


def test_a_trip_names_the_first_simulator_caller(monkeypatch):
    """The caller filter, in this process: a read through a stdlib layer is
    charged to the simulator line that asked for it; ``hash`` inside a
    ``__hash__`` and a read from outside the simulator are not."""
    monkeypatch.setattr(sys.modules[__name__], "TRIPS", set())
    owner = types.SimpleNamespace(hash=lambda value: 0)
    _wire(owner, "hash", "hash")
    stdlib = {"__name__": "os", "owner": owner}
    exec("def getenv():\n    return owner.hash(1)\n", stdlib)
    simulator = {"__name__": "repro.core.example", "owner": owner, "getenv": stdlib["getenv"]}
    exec(
        "class Key:\n"
        "    def __hash__(self):\n"
        "        return owner.hash(2)\n"
        "\n"
        "def send():\n"
        "    return getenv()\n",
        simulator,
    )
    harness = {"__name__": "repro.experiments.example", "owner": owner}
    exec("def measure():\n    return owner.hash(3)\n", harness)

    hash(simulator["Key"]())
    harness["measure"]()
    assert TRIPS == set()
    simulator["send"]()
    assert TRIPS == {"repro.core.example:6 hash"}


if __name__ == "__main__":
    result = contract_run("--inject-time-read" in sys.argv[1:])
    print(json.dumps(result))
