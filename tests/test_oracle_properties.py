"""Property suite: random traffic + random crash points, every protocol.

For each registered protocol family, hypothesis draws a scenario -- a
workload seed (which drives the chatty application's random communication
pattern), a federation shape and one or two crash points at arbitrary
times on arbitrary non-leader nodes -- and the run must satisfy two
properties:

* **consistency** -- the protocol-agnostic oracle
  (:mod:`repro.analysis.oracle`) finds no orphan, duplicate or lost
  message on the surviving timeline;
* **per-seed determinism** -- repeating the identical scenario produces a
  byte-identical run: the kernel dispatch-stream digest (every event's
  IEEE-754 timestamp, sequence number and callback) and the protocol's
  full stats snapshot both match exactly.

Together these turn "the baselines look plausible" into a checked
invariant over a randomized scenario space, not just the golden schedules.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.oracle import assert_consistent, attach_oracle
from repro.core.protocol import protocol_names
from repro.network.message import NodeId
from repro.sim.trace_digest import TraceDigest
from tests.conftest import make_federation

PROTOCOL_CASES = [
    ("hc3i", None),
    ("hc3i-transitive", None),
    ("cic-always", None),
    ("global-coordinated", None),
    ("independent", None),
    ("pessimistic-log", None),
    ("min-process", None),
    ("clc-cic", {"predicate": "bcs"}),
    ("clc-cic", {"predicate": "bcs-aftersend"}),
]

CASE_IDS = [
    name if not opts else f"{name}-{opts['predicate']}"
    for name, opts in PROTOCOL_CASES
]

TOTAL_TIME = 400.0


def test_property_cases_cover_registry():
    assert {name for name, _ in PROTOCOL_CASES} == set(protocol_names())


@st.composite
def scenario(draw):
    """A workload seed, a federation shape and 1-2 spaced crash points."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    n_clusters = draw(st.integers(min_value=2, max_value=3))
    n_crashes = draw(st.integers(min_value=1, max_value=2))
    crashes = []
    t = 10.0
    for _ in range(n_crashes):
        t += draw(st.floats(min_value=0.0, max_value=150.0))
        cluster = draw(st.integers(0, n_clusters - 1))
        node = draw(st.integers(1, 2))  # non-leader victims
        crashes.append((t, NodeId(cluster, node)))
        t += 30.0  # let the previous recovery finish
    return seed, n_clusters, crashes


def run_scenario(protocol, options, seed, n_clusters, crashes):
    fed = make_federation(
        n_clusters=n_clusters,
        nodes=3,
        total_time=TOTAL_TIME,
        clc_period=90.0,
        protocol=protocol,
        protocol_options=options,
        seed=seed,
        chatty=True,
    )
    oracle = attach_oracle(fed)
    digest = TraceDigest()
    fed.sim.attach_digest(digest)
    fed.start()
    for t, victim in crashes:
        if t > fed.sim.now:
            fed.sim.run(until=t)
        node = fed.node(victim)
        if node.up:
            fed.inject_failure(victim)
    fed.run()
    return fed, oracle, digest


def run_fingerprint(fed, digest):
    """Everything a repeat run must reproduce byte-for-byte."""
    n = fed.topology.n_clusters
    return json.dumps(
        {
            "digest": digest.hexdigest(),
            "events": digest.events,
            "stats": fed.protocol.stats.snapshot(),
            "clusters": [fed.protocol.cluster_summary(c) for c in range(n)],
        },
        sort_keys=True,
        default=repr,
    ).encode()


@pytest.mark.parametrize(("protocol", "options"), PROTOCOL_CASES, ids=CASE_IDS)
@given(params=scenario())
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_consistent_and_deterministic(protocol, options, params):
    seed, n_clusters, crashes = params
    fed, oracle, digest = run_scenario(protocol, options, seed, n_clusters, crashes)
    assert_consistent(fed, oracle)
    first = run_fingerprint(fed, digest)

    fed2, oracle2, digest2 = run_scenario(
        protocol, options, seed, n_clusters, crashes
    )
    assert run_fingerprint(fed2, digest2) == first, (
        f"{protocol}: same seed produced a different run"
    )
