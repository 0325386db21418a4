"""The protocol-agnostic consistency oracle, applied to every registry
protocol.

Two layers:

* a deterministic failure matrix -- every protocol family (all registered
  names, both clc-cic predicates) survives two mid-run node crashes on a
  chatty federation with zero orphan/duplicate/lost violations;
* non-vacuity -- the oracle actually *catches* each violation class when
  one is seeded into its trace, so a green matrix means something.
"""


import pytest

from repro.analysis.oracle import (
    DeliveryEvent,
    SendEvent,
    assert_consistent,
    attach_oracle,
)
from repro.core.protocol import protocol_names
from repro.network.message import NodeId
from tests.conftest import make_federation

#: every registered protocol, with clc-cic exercised under both predicates
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


def test_case_list_covers_registry():
    """A newly registered protocol must be added to the oracle matrix."""
    assert {name for name, _ in PROTOCOL_CASES} == set(protocol_names())


def run_with_failures(protocol, options, seed, fail_specs, total_time=1000.0):
    fed = make_federation(
        n_clusters=3,
        nodes=3,
        total_time=total_time,
        clc_period=120.0,
        protocol=protocol,
        protocol_options=options,
        seed=seed,
        chatty=True,
    )
    oracle = attach_oracle(fed)
    fed.start()
    for t, victim in fail_specs:
        fed.sim.run(until=t)
        fed.inject_failure(victim)
    fed.run()
    return fed, oracle


def run_crashes(protocol, options, seed):
    """One cell of the crash matrix: two node crashes in two clusters."""
    specs = [(301.0 + seed, NodeId(0, 1)), (702.0 + seed, NodeId(1, 2))]
    return run_with_failures(protocol, options, seed, specs)


@pytest.mark.parametrize(("protocol", "options"), PROTOCOL_CASES, ids=CASE_IDS)
@pytest.mark.parametrize("seed", [1, 2])
def test_every_protocol_consistent_after_crashes(protocol, options, seed):
    fed, oracle = run_crashes(protocol, options, seed)
    report = assert_consistent(fed, oracle)
    assert report.messages > 0, "vacuous run: no inter-cluster traffic seen"
    assert report.delivered > 0


@pytest.mark.parametrize(("protocol", "options"), PROTOCOL_CASES, ids=CASE_IDS)
def test_every_protocol_consistent_without_failures(protocol, options):
    fed, oracle = run_with_failures(protocol, options, seed=5, fail_specs=[],
                                    total_time=600.0)
    report = assert_consistent(fed, oracle)
    assert report.erasures == 0
    assert report.messages > 0


# ----------------------------------------------------------------------
# non-vacuity: seed each violation class, the oracle must flag it
# ----------------------------------------------------------------------

def clean_run():
    fed, oracle = run_with_failures("hc3i", None, seed=1, fail_specs=[],
                                    total_time=400.0)
    assert oracle.check().ok
    return fed, oracle


def first_delivered(oracle):
    for msg_id in sorted(oracle.sends):
        if oracle.deliveries.get(msg_id):
            return msg_id
    raise AssertionError("no delivered inter-cluster message in the trace")


def violation_kinds(oracle):
    return {kind for kind, _ in oracle.check().violations}


def test_oracle_flags_orphan():
    _fed, oracle = clean_run()
    msg_id = first_delivered(oracle)
    # erase exactly the send instant on the sender; the delivery survives
    send = oracle.sends[msg_id][0]
    oracle.erasure_windows.setdefault(send.src_cluster, []).append(
        (send.time, send.time)
    )
    assert "orphan" in violation_kinds(oracle)


def test_oracle_flags_duplicate():
    _fed, oracle = clean_run()
    msg_id = first_delivered(oracle)
    d = oracle.deliveries[msg_id][0]
    oracle.deliveries[msg_id].append(
        DeliveryEvent(msg_id=msg_id, time=d.time + 1.0, cluster=d.cluster,
                      node=d.node, kind=d.kind)
    )
    assert "duplicate" in violation_kinds(oracle)


def test_oracle_flags_lost():
    fed, oracle = clean_run()
    now = fed.sim.now
    oracle.sends[999999] = [
        SendEvent(msg_id=999999, time=now - 10.0, src_cluster=0,
                  dst_cluster=1, arrival=now - 9.0, kind="app")
    ]
    assert "lost" in violation_kinds(oracle)


def test_oracle_flags_unsourced():
    _fed, oracle = clean_run()
    oracle.deliveries[999999] = [
        DeliveryEvent(msg_id=999999, time=1.0, cluster=1, node="n1.0",
                      kind="app")
    ]
    assert "unsourced" in violation_kinds(oracle)


def test_in_flight_excuse_is_optional():
    fed, oracle = clean_run()
    now = fed.sim.now
    oracle.sends[999999] = [
        SendEvent(msg_id=999999, time=now - 0.001, src_cluster=0,
                  dst_cluster=1, arrival=now + 5.0, kind="app")
    ]
    report = oracle.check(allow_in_flight=True)
    assert report.ok and report.in_flight == 1
    strict = oracle.check(allow_in_flight=False)
    assert not strict.ok
    assert {kind for kind, _ in strict.violations} == {"lost"}


def test_erasure_interval_is_closed_on_the_left():
    """An event stamped exactly at the restored checkpoint's commit time is
    erased -- it is causally after the commit, not part of the state."""
    _fed, oracle = clean_run()
    oracle.erasure_windows[0] = [(100.0, 200.0)]
    assert oracle.erased(0, 100.0)
    assert oracle.erased(0, 200.0)
    assert not oracle.erased(0, 99.999999)
    assert not oracle.erased(0, 200.000001)
