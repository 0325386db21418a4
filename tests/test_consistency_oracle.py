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

from repro.analysis.oracle import assert_consistent, attach_oracle
from repro.core.protocol import protocol_names
from repro.network.message import NodeId
from tests.conftest import inject_record, inject_send, make_federation

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
# non-vacuity: seed each violation class as trace records the run never
# made, the oracle must flag it
# ----------------------------------------------------------------------

def clean_run():
    fed, oracle = run_with_failures("hc3i", None, seed=1, fail_specs=[],
                                    total_time=400.0)
    assert oracle.check().ok
    return fed, oracle


def first_delivered(oracle):
    """The first delivered message's id, its first send and first delivery
    (their trace records)."""
    sends, deliveries, _windows = oracle.recorded()
    for msg_id in sorted(sends):
        if deliveries.get(msg_id):
            return msg_id, sends[msg_id][0], deliveries[msg_id][0]
    raise AssertionError("no delivered inter-cluster message in the trace")


def violations(oracle, allow_in_flight=True):
    """``{kind: [msg ids]}`` of a check's violations."""
    found: dict = {}
    for kind, detail in oracle.check(allow_in_flight).violations:
        found.setdefault(kind, []).append(int(detail.split()[1]))
    return found


def test_oracle_flags_orphan():
    fed, oracle = clean_run()
    msg_id, send, _delivery = first_delivered(oracle)
    # erase exactly the send instant on the sender; the delivery survives
    inject_record(fed, send.time, "erasure", cluster=oracle.cluster_of[send["src"]],
                  target_time=send.time)
    assert violations(oracle) == {"orphan": [msg_id]}


def test_oracle_flags_duplicate():
    fed, oracle = clean_run()
    msg_id, _send, d = first_delivered(oracle)
    inject_record(fed, d.time + 1.0, "app_delivered", msg_id=msg_id,
                  node=d["node"])
    assert violations(oracle) == {"duplicate": [msg_id]}


def test_oracle_flags_lost():
    fed, oracle = clean_run()
    now = fed.sim.now
    inject_send(fed, 999999, time=now - 10.0, arrival=now - 9.0)
    assert violations(oracle) == {"lost": [999999]}


def test_oracle_flags_unsourced():
    fed, oracle = clean_run()
    inject_record(fed, 1.0, "app_delivered", msg_id=999999, node="c1n0")
    assert violations(oracle) == {"unsourced": [999999]}


def test_in_flight_excuse_is_optional():
    fed, oracle = clean_run()
    now = fed.sim.now
    inject_send(fed, 999999, time=now - 0.001, arrival=now + 5.0)
    report = oracle.check(allow_in_flight=True)
    assert report.ok and report.in_flight == 1
    assert violations(oracle, allow_in_flight=False) == {"lost": [999999]}


def test_erasure_interval_is_closed_on_the_left():
    """An event stamped exactly at the restored checkpoint's commit time is
    erased -- it is causally after the commit, not part of the state."""
    fed = make_federation(n_clusters=3, nodes=3)
    oracle = attach_oracle(fed)
    inject_record(fed, 200.0, "erasure", cluster=0, target_time=100.0)
    # a surviving delivery in cluster 1 of a send at each instant: an
    # erased send leaves its delivery an orphan
    for msg_id, t in enumerate([99.999999, 100.0, 200.0, 200.000001], start=1):
        inject_send(fed, msg_id, time=t, arrival=t)
        inject_record(fed, t, "app_delivered", msg_id=msg_id, node="c1n0")
    assert violations(oracle) == {"orphan": [2, 3]}
    assert oracle.check().erasures == 1
