"""Application processes.

``compute_communicate_factory`` builds the paper's workload loop: compute
for an exponentially distributed time, then with the configured
probabilities send one message to a uniformly chosen node of some cluster.
Interrupting the process (node failure / cluster rollback) simply stops the
loop; the federation restarts it when recovery completes, which models
re-execution from the restored checkpoint.

``scripted_sender_factory`` drives deterministic scenarios (the Figure 5
worked example, protocol unit tests): an explicit list of timed sends.

Snapshot support
----------------

A live generator cannot be pickled, so every application generator here is
resumable by construction (see :class:`repro.sim.snapshot.GenSpec`): the
factories return ``GenSpec`` objects instead of raw generators, each
generator takes a trailing ``_phase`` dict it labels (``phase["at"]``)
before every yield, and on restore the rebuilt generator reads that label
once and jumps to a bare re-entry ``yield`` -- no side effects, no RNG
draws -- so the pending kernel event resumes it exactly where the original
was suspended.  The fresh path (empty phase dict) is behaviorally
identical to the pre-snapshot generators: same draws from the same
streams, same yields, same sends.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.network.message import Message, NodeId
from repro.sim.process import Interrupt, Timeout
from repro.sim.snapshot import GenSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.federation import Federation
    from repro.cluster.node import Node

__all__ = ["compute_communicate_factory", "scripted_sender_factory"]

AppFactory = Callable[["Node", "Federation"], object]


class ComputeCommunicateFactory:
    """Picklable factory for the default stochastic workload."""

    __slots__ = ()

    def __call__(self, node: "Node", federation: "Federation") -> GenSpec:
        return GenSpec(_compute_communicate, node, federation)


def compute_communicate_factory() -> AppFactory:
    """The default stochastic workload (the paper's application model)."""
    return ComputeCommunicateFactory()


def _compute_communicate(
    node: "Node", federation: "Federation", _phase: Optional[dict] = None
):
    app = federation.application
    spec = app.spec_for(node.id.cluster)
    topology = federation.topology
    stream = federation.streams.stream(f"app/{node.id}")
    n_clusters = topology.n_clusters
    # Destination lottery: one slot per cluster plus "silence".
    probs = [spec.probability_to(d) for d in range(n_clusters)]
    silence = max(0.0, 1.0 - sum(probs))
    choices = [*range(n_clusters), None]
    weights = [*probs, silence]

    ph = _phase if _phase is not None else {}
    gate = ph.get("at")
    try:
        if gate == "drain":
            # Restored mid final wait: the pending event ends the run.
            yield
            return
        working = gate == "work"
        while True:
            if working:
                working = False
                yield  # restored mid compute: pending Timeout resumes here
            else:
                delay = stream.exponential(spec.mean_compute)
                if node.sim.now + delay >= app.total_time:
                    # Work until the end of the application, then stop.
                    remaining = app.total_time - node.sim.now
                    if remaining > 0:
                        ph["at"] = "drain"
                        yield Timeout(remaining)
                    return
                ph["at"] = "work"
                yield Timeout(delay)
            dst_cluster = stream.choice(choices, weights=weights)
            if dst_cluster is None:
                continue
            n_nodes = topology.nodes_in(dst_cluster)
            dst_node = stream.randint(0, n_nodes - 1)
            if dst_cluster == node.id.cluster and dst_node == node.id.node:
                dst_node = (dst_node + 1) % n_nodes  # never message oneself
                if n_nodes == 1:
                    continue
            node.send_app(NodeId(dst_cluster, dst_node), spec.message_size)
    except Interrupt:
        return  # failure / rollback: the federation restarts us


class ExchangeFactory:
    """Picklable factory for request/response exchanges (§2.1)."""

    __slots__ = (
        "requester_cluster",
        "responder_cluster",
        "mean_compute",
        "request_probability",
        "request_size",
        "reply_size",
    )

    def __init__(
        self,
        requester_cluster: int,
        responder_cluster: int,
        mean_compute: float,
        request_probability: float,
        request_size: int,
        reply_size: int,
    ):
        self.requester_cluster = requester_cluster
        self.responder_cluster = responder_cluster
        self.mean_compute = mean_compute
        self.request_probability = request_probability
        self.request_size = request_size
        self.reply_size = reply_size

    def __call__(self, node: "Node", federation: "Federation") -> GenSpec:
        if node.id.cluster == self.responder_cluster:
            node.app_sink = _Responder(node, self.reply_size)
        if node.id.cluster == self.requester_cluster:
            return GenSpec(
                _requester_loop,
                node,
                federation,
                self.responder_cluster,
                self.mean_compute,
                self.request_probability,
                self.request_size,
            )
        return GenSpec(_idle_forever, node)


def exchange_factory(
    requester_cluster: int = 0,
    responder_cluster: int = 1,
    mean_compute: float = 600.0,
    request_probability: float = 1.0,
    request_size: int = 1024,
    reply_size: int = 1024,
) -> AppFactory:
    """Request/response exchanges between two modules (§2.1).

    "Inter-group communications may be pipelined as in Figure 1 or they
    may consist of exchanges between two modules."  Nodes of the requester
    cluster alternate compute phases with requests to a random node of the
    responder cluster; the responder's application replies immediately.
    The resulting bidirectional traffic is the §5.3 regime where SNs grow
    on both sides and most messages force CLCs.
    """
    return ExchangeFactory(
        requester_cluster,
        responder_cluster,
        mean_compute,
        request_probability,
        request_size,
        reply_size,
    )


class _Responder:
    """Picklable application sink: answer each request with one reply."""

    __slots__ = ("node", "reply_size")

    def __init__(self, node: "Node", reply_size: int):
        self.node = node
        self.reply_size = reply_size

    def __call__(self, msg: Message) -> None:
        if msg.payload.get("request") and self.node.up:
            self.node.send_app(msg.src, self.reply_size, payload={"reply": True})


def _requester_loop(
    node: "Node",
    federation: "Federation",
    responder_cluster: int,
    mean_compute: float,
    request_probability: float,
    request_size: int,
    _phase: Optional[dict] = None,
):
    app = federation.application
    stream = federation.streams.stream(f"exchange/{node.id}")
    n_nodes = federation.topology.nodes_in(responder_cluster)
    ph = _phase if _phase is not None else {}
    gate = ph.get("at")
    try:
        if gate == "drain":
            yield
            return
        working = gate == "work"
        while True:
            if working:
                working = False
                yield
            else:
                delay = stream.exponential(mean_compute)
                if node.sim.now + delay >= app.total_time:
                    remaining = app.total_time - node.sim.now
                    if remaining > 0:
                        ph["at"] = "drain"
                        yield Timeout(remaining)
                    return
                ph["at"] = "work"
                yield Timeout(delay)
            if not stream.bernoulli(request_probability):
                continue
            dst = NodeId(responder_cluster, stream.randint(0, n_nodes - 1))
            node.send_app(dst, request_size, payload={"request": True})
    except Interrupt:
        return


def _idle_forever(node: "Node", _phase: Optional[dict] = None):
    ph = _phase if _phase is not None else {}
    try:
        if ph.get("at") == "idle":
            yield
            return
        ph["at"] = "idle"
        yield Timeout(float("1e18"))
    except Interrupt:
        return


class ScriptedSenderFactory:
    """Picklable factory for deterministic timed-send scripts."""

    __slots__ = ("scripts",)

    def __init__(self, scripts: dict):
        self.scripts = {nid: tuple(sorted(items)) for nid, items in scripts.items()}

    def __call__(self, node: "Node", federation: "Federation") -> GenSpec:
        return GenSpec(_scripted, node, self.scripts.get(node.id, ()))


def scripted_sender_factory(scripts: dict) -> AppFactory:
    """Deterministic senders for worked examples and tests.

    :param scripts: maps a :class:`NodeId` to an iterable of
        ``(time, dst, size)`` send instructions (absolute times, sorted).
        Nodes without a script idle forever.
    """
    return ScriptedSenderFactory(scripts)


def _scripted(node: "Node", script: Iterable[tuple], _phase: Optional[dict] = None):
    script = tuple(script)
    ph = _phase if _phase is not None else {}
    gate = ph.get("at")
    try:
        if gate == "idle":
            yield
            return
        start = 0
        if gate == "send":
            # Restored mid wait for instruction ph["i"]: its Timeout is the
            # pending event, so commit the send without re-checking its
            # time (the original had already passed the `at < now` guard).
            yield
            idx = ph["i"]
            _at, dst, size = script[idx]
            node.send_app(dst, size)
            start = idx + 1
        for idx in range(start, len(script)):
            at, dst, size = script[idx]
            # A restarted script (post-rollback re-execution) skips the
            # instructions whose time already passed: deterministic
            # scenarios assert on protocol state, not on re-sent traffic.
            if at < node.sim.now:
                continue
            delay = at - node.sim.now
            if delay > 0:
                ph["at"] = "send"
                ph["i"] = idx
                yield Timeout(delay)
            node.send_app(dst, size)
        # Stay alive (idle) so joins behave uniformly.
        ph["at"] = "idle"
        yield Timeout(float("1e18"))
    except Interrupt:
        return
