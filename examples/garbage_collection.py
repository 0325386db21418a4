#!/usr/bin/env python
"""Garbage collection at work (§3.5, Tables 2 & 3).

Runs the Table 2 scenario at reduced scale: heavy bidirectional
inter-cluster traffic makes both clusters accumulate forced CLCs and
logged messages; every (simulated) 30 minutes the collector at cluster 0's
leader simulates a failure in each cluster, computes the smallest SN anyone
might roll back to, and prunes everything older.

Run:  python examples/garbage_collection.py
"""

from repro import Federation, table2_workload
from repro.analysis.reporting import format_table


def run(seed: int = 5):
    topology, application, timers = table2_workload(
        nodes=10,
        total_time=2 * 3600.0,
        gc_period=30 * 60.0,
        clc_period=10 * 60.0,
    )
    fed = Federation(topology, application, timers, seed=seed)
    return fed, fed.run()


def main() -> None:
    fed, results = run()
    rows = []
    series0 = results.gc_series(0)
    series1 = results.gc_series(1)
    for k, ((t, b0, a0), (_t1, b1, a1)) in enumerate(zip(series0, series1), 1):
        rows.append((k, f"{t/60:.0f} min", b0, a0, b1, a1))
    print(format_table(
        ["GC #", "at", "c0 before", "c0 after", "c1 before", "c1 after"],
        rows,
        title="-- the collector --",
    ))
    gc_msgs = sum(
        results.counter(f"net/protocol/{k}")
        for k in ("gc_request", "gc_response", "gc_collect", "gc_local")
    )
    print(f"CLCs removed: {results.counter('gc/clcs_removed')}, "
          f"log entries removed: {results.counter('gc/log_entries_removed')}, "
          f"GC messages: {gc_msgs}")
    print()

    print("Old CLCs are removed once no reachable single-failure recovery")
    print("line can need them; logged messages acknowledged below the")
    print("receiver's bound go with them.  Each round costs N-1 requests,")
    print("N-1 responses, N-1 collects and one broadcast per cluster (§5.4).")


if __name__ == "__main__":
    main()
