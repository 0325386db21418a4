"""ASCII rendering of an execution timeline (Figure 5 style).

The paper's Figure 5 shows per-cluster lanes with CLC boxes (DDVs
embedded), inter-cluster message arrows and the rollback cascade.  This
module reconstructs that picture from the trace: one column per cluster,
one row per event, chronological.

Renders from a run at ``TraceLevel.PROTOCOL`` or higher: inter-cluster
sends are protocol-level records, like CLC commits, rollbacks, alerts and
GC (intra-cluster traffic, recorded at ``MESSAGE``, is left out).

Example output::

         time  C0                    C1                    C2
        0.000  [CLC 1 (1,0,0)]
        0.000                        [CLC 1 (0,1,0)]
       10.000  m#17 ->C1
       10.001                        [CLC 2* (1,2,0)]
       10.001                        deliver m#17
       80.964                        ROLLBACK -> sn 4
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.federation import Federation
    from repro.sim.trace import TraceRecord

__all__ = ["render_timeline"]

_COLUMN_WIDTH = 26


def _cluster_of(record: "TraceRecord") -> Optional[int]:
    if "cluster" in record.fields:
        return record["cluster"]
    if "src" in record.fields:  # send events: attribute to the sender
        return int(str(record["src"]).split("n")[0][1:])
    return None


def _describe(record: "TraceRecord") -> Optional[str]:
    kind = record.kind
    f = record.fields
    if kind == "clc_commit":
        star = "*" if f.get("cause") == "forced" else ""
        ddv = ",".join(str(v) for v in f.get("ddv", ()))
        return f"[CLC {f['sn']}{star} ({ddv})]"
    if kind == "send":
        dst_cluster = str(f["dst"]).split("n")[0]
        src_cluster = str(f["src"]).split("n")[0]
        if dst_cluster == src_cluster:
            return None  # intra-cluster traffic clutters the picture
        return f"m#{f['msg_id']} ->{dst_cluster.upper()}"
    if kind == "inter_delivered":
        return f"deliver m#{f['msg_id']} (ack {f['ack_sn']})"
    if kind == "force_requested":
        return f"m#{f['msg_id']} forces CLC"
    if kind == "rollback":
        return f"ROLLBACK -> sn {f['to_sn']}"
    if kind == "alert_received":
        return f"alert(c{f['faulty']}, sn {f['sn']})"
    if kind == "replayed":
        return f"replay {f['count']} msg(s) ->c{f['dest']}"
    if kind == "failure_detected":
        return f"FAULT node {f['node']}"
    if kind == "gc_prune":
        return f"GC {f['before']}->{f['after']} CLCs"
    if kind == "ghost_dropped":
        return f"drop ghost m#{f['msg_id']}"
    return None


def render_timeline(
    federation: "Federation",
    t0: float = 0.0,
    t1: Optional[float] = None,
) -> str:
    """Render the federation's trace as per-cluster lanes."""
    n = federation.topology.n_clusters
    header = f"{'time':>12}  " + "".join(
        f"C{c}".ljust(_COLUMN_WIDTH) for c in range(n)
    )
    lines = [header, "-" * len(header)]
    for record in federation.tracer.records:
        if record.time < t0 or (t1 is not None and record.time > t1):
            continue
        cluster = _cluster_of(record)
        if cluster is None or not (0 <= cluster < n):
            continue
        text = _describe(record)
        if text is None:
            continue
        cells = [""] * n
        cells[cluster] = text[: _COLUMN_WIDTH - 1]
        lines.append(
            f"{record.time:>12.3f}  "
            + "".join(cell.ljust(_COLUMN_WIDTH) for cell in cells)
        )
    return "\n".join(lines)
