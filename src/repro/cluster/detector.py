"""Heartbeat-based failure detection.

The paper leaves the detector out of scope ("the description of the
failure detector is out of the scope of this paper", §3.4) and our default
is therefore a fixed-latency oracle.  This module provides the realistic
alternative: a simulated heartbeat protocol whose traffic and detection
latency are part of the model.

Design (per cluster):

* every node sends a ``HEARTBEAT`` message to its *monitor* each
  ``heartbeat_period`` seconds: the cluster leader monitors everyone else,
  and node 1 monitors the leader (so the leader's own death is noticed);
* a sweep running at the same period suspects a node once nothing was
  heard from it for ``heartbeat_timeout`` seconds, and reports it to the
  protocol exactly once per failure;
* monitorees of a *dead monitor* are not suspected (their heartbeats are
  being dropped at the crashed node, not missing at the source); they are
  re-armed with a fresh grace period when the monitor recovers.

Select with ``TimersConfig(detector="heartbeat", heartbeat_period=...,
heartbeat_timeout=...)``.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from repro.network.message import Message, MessageKind, NodeId
from repro.sim.timers import PeriodicTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.federation import Federation

__all__ = ["HeartbeatDetector"]

HEARTBEAT_SIZE = 32


class HeartbeatDetector:
    """Federation-wide heartbeat machinery (one monitor map per cluster)."""

    def __init__(self, federation: "Federation", period: float, timeout: float):
        if period <= 0:
            raise ValueError(f"heartbeat period must be positive: {period}")
        if timeout <= period:
            raise ValueError(
                f"heartbeat timeout ({timeout}) must exceed the period ({period})"
            )
        self.federation = federation
        self.period = period
        self.timeout = timeout
        #: last time a heartbeat from each node was received by its monitor
        self._last_heard: dict = {}
        #: nodes already reported to the protocol (cleared on recovery)
        self._reported: set = set()
        self._timers: list = []
        self.suspects_raised = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        now = self.federation.sim.now
        for cluster in self.federation.clusters:
            for node in cluster.nodes:
                node.system_hook = self._on_heartbeat
                self._last_heard[node.id] = now
            timer = PeriodicTimer(
                self.federation.sim,
                self.period,
                functools.partial(self._tick, cluster.index),
                name=f"heartbeat-c{cluster.index}",
            )
            timer.start()
            self._timers.append(timer)

    def monitor_of(self, node_id: NodeId) -> NodeId:
        """Who watches this node: the leader, or node 1 for the leader."""
        if node_id.node == 0:
            size = self.federation.topology.nodes_in(node_id.cluster)
            return NodeId(node_id.cluster, 1 % size)
        return NodeId(node_id.cluster, 0)

    # ------------------------------------------------------------------
    def _on_heartbeat(self, msg: Message) -> bool:
        """System hook installed on every node: consume heartbeat traffic."""
        if msg.kind is not MessageKind.HEARTBEAT:
            return False
        self._last_heard[msg.src] = self.federation.sim.now
        return True

    def _tick(self, cluster_index: int) -> None:
        """Send this round's heartbeats, then sweep for silent nodes."""
        fed = self.federation
        cluster = fed.clusters[cluster_index]
        if cluster.size < 2:
            return  # nobody to watch or be watched by
        now = fed.sim.now
        for node in cluster.nodes:
            if not node.up:
                continue
            monitor = self.monitor_of(node.id)
            if monitor == node.id:
                continue
            node.send_raw(monitor, MessageKind.HEARTBEAT, size=HEARTBEAT_SIZE)

        for node in cluster.nodes:
            monitor_id = self.monitor_of(node.id)
            if monitor_id == node.id:
                continue
            monitor = fed.node(monitor_id)
            if node.up:
                # A recovered node resumes heartbeating; forget the report
                # once the monitor has heard from it again.
                if node.id in self._reported and (
                    now - self._last_heard[node.id] <= self.timeout
                ):
                    self._reported.discard(node.id)
                continue
            if not monitor.up:
                # The watcher itself is dead; silence proves nothing.
                self._last_heard[node.id] = now
                continue
            if node.id in self._reported:
                continue
            if now - self._last_heard[node.id] > self.timeout:
                self._reported.add(node.id)
                self.suspects_raised += 1
                fed.stats.counter("failures/detected").inc()
                fed.tracer.protocol(
                    "heartbeat_suspect",
                    cluster=node.id.cluster,
                    node=node.id.node,
                    silent_for=now - self._last_heard[node.id],
                )
                fed.protocol.on_failure_detected(node)
