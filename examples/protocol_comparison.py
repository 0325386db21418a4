#!/usr/bin/env python
"""Compare HC3I against the protocol families of §2.2/§6.

Same federation, same workload, same two failures, four protocols:

* ``hc3i``               -- the paper's hierarchical protocol,
* ``global-coordinated`` -- one two-phase commit across the federation,
* ``independent``        -- uncoordinated checkpoints, domino rollback,
* ``pessimistic-log``    -- MPICH-V-style log-everything, 1-node rollback.

Each run is judged by the consistency oracle (§2.2: no orphan, duplicate
or lost message on the surviving timeline), so the numbers compared are
those of four *correct* recoveries.

Run:  python examples/protocol_comparison.py
"""

from repro import Federation, table1_workload
from repro.analysis.oracle import assert_consistent, attach_oracle
from repro.analysis.reporting import format_table
from repro.analysis.rollback_cost import rollback_costs
from repro.network.message import NodeId
from repro.sim.trace import TraceLevel

PROTOCOLS = ["hc3i", "global-coordinated", "independent", "pessimistic-log"]


def run(protocol: str, seed: int = 13):
    topology, application, timers = table1_workload(
        nodes=10,
        total_time=2 * 3600.0,
        clc_period_0=10 * 60.0,
        clc_period_1=10 * 60.0,
        messages_1_to_0=103,   # chatty in both directions
    )
    fed = Federation(
        topology,
        application,
        timers,
        protocol=protocol,
        seed=seed,
        trace_level=TraceLevel.PROTOCOL,
    )
    oracle = attach_oracle(fed)  # before start(): it must see every send
    fed.start()
    fed.sim.schedule_at(3000.0, fed.inject_failure, NodeId(0, 3))
    fed.sim.schedule_at(5500.0, fed.inject_failure, NodeId(1, 2))
    results = fed.run()
    return fed, results, assert_consistent(fed, oracle)


def main() -> None:
    rows = []
    verdicts = []
    for protocol in PROTOCOLS:
        fed, results, verdict = run(protocol)
        verdicts.append((protocol, verdict))
        costs = rollback_costs(fed)
        checkpoints = sum(results.clc_counts(c)["total"] for c in range(2))
        log_bytes = results.counter("pessimistic/log_bytes") + sum(
            results.clusters[c].get("log_bytes", 0) or 0 for c in range(2)
        )
        rows.append((
            protocol,
            checkpoints,
            costs.failures,
            f"{costs.mean_clusters_per_failure:.1f}",
            f"{costs.lost_work_node_seconds:.0f}",
            costs.replays,
            log_bytes,
        ))
    print(format_table(
        [
            "protocol",
            "checkpoints",
            "failures",
            "clusters rolled/failure",
            "lost node-sec",
            "replays",
            "log bytes",
        ],
        rows,
        title="Two failures, identical workload",
    ))
    print()
    for protocol, verdict in verdicts:
        print(f"{protocol:>18}  {verdict}")
    print()
    print("HC3I keeps rollback scope near one cluster thanks to sender-side")
    print("logs; global coordination rolls everyone back; independent")
    print("checkpointing dominoes; pessimistic logging rolls back a single")
    print("node but logs every message and needs the PWD assumption.")


if __name__ == "__main__":
    main()
