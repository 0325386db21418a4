"""Application processes.

``compute_communicate_factory`` builds the paper's workload loop: compute
for an exponentially distributed time, then with the configured
probabilities send one message to a uniformly chosen node of some cluster.
Interrupting the process (node failure / cluster rollback) simply stops the
loop; the federation restarts it when recovery completes, which models
re-execution from the restored checkpoint.

``scripted_sender_factory`` drives deterministic scenarios (the Figure 5
worked example, protocol unit tests): an explicit list of timed sends.

Draws
-----

The stochastic loops run once per application message, so each computes
its invariants once, when the process starts: the destination lottery's
cumulative weights and total, the node counts, the mean and the end time.
Each message then draws with the bound C methods of its stream's
``random.Random`` (``Stream.rng``), using the stdlib's own arithmetic:

* destination cluster -- ``choices[bisect(cum, random() * total, 0, hi)]``,
  which is ``Random.choices(choices, weights, k=1)[0]``;
* node -- a ``getrandbits(n.bit_length())`` rejection loop, which is
  ``Random.randint(0, n - 1)``;
* compute time -- ``-mean * log(u)``, redrawing while ``u <= 0.0``, which
  is :meth:`repro.sim.random.Stream.exponential`.

So every draw, and the generator state after it, is the one those methods
make (``tests/test_sim_random_stats.py`` checks it).  The finite, positive
weight total that ``Random.choices`` checked per draw is guaranteed by
:class:`repro.config.application.ClusterAppSpec`.  Only the generator's own
methods, ``log`` and ``bisect`` are bound; ``node.send_app`` is looked up
per message (``docs/architecture.md`` §The per-message path).

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

from bisect import bisect
from itertools import accumulate
from math import log
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.network.message import Message, NodeId
from repro.sim.process import Interrupt, Timeout
from repro.sim.snapshot import GenSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.federation import Federation
    from repro.cluster.node import Node
    from repro.config.application import ClusterAppSpec

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


def _destination_lottery(spec: "ClusterAppSpec", n_clusters: int) -> tuple:
    """One slot per cluster plus "silence" (``None``), compiled once into
    what ``Random.choices`` rebuilds on every call: ``(choices, cum, total,
    hi)``.  A draw is then ``choices[bisect(cum, random() * total, 0, hi)]``,
    which is ``Random.choices(choices, weights, k=1)[0]``."""
    probs = [spec.probability_to(d) for d in range(n_clusters)]
    cum = list(accumulate([*probs, max(0.0, 1.0 - sum(probs))]))
    return [*range(n_clusters), None], cum, cum[-1] + 0.0, len(cum) - 1


def _compute_communicate(
    node: "Node", federation: "Federation", _phase: Optional[dict] = None
):
    app = federation.application
    spec = app.spec_for(node.id.cluster)
    topology = federation.topology
    rng = federation.streams.stream(f"app/{node.id}").rng
    choices, cum, total, hi = _destination_lottery(spec, topology.n_clusters)
    sizes = [topology.nodes_in(d) for d in range(topology.n_clusters)]
    my_cluster, my_node = node.id
    mean = spec.mean_compute
    size = spec.message_size
    end = app.total_time
    random = rng.random
    getrandbits = rng.getrandbits

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
                u = random()  # Stream.exponential(mean)
                while u <= 0.0:  # pragma: no cover - probability ~0
                    u = random()
                delay = -mean * log(u)
                if node.sim.now + delay >= end:
                    # Work until the end of the application, then stop.
                    remaining = end - node.sim.now
                    if remaining > 0:
                        ph["at"] = "drain"
                        yield Timeout(remaining)
                    return
                ph["at"] = "work"
                yield Timeout(delay)
            dst_cluster = choices[bisect(cum, random() * total, 0, hi)]
            if dst_cluster is None:
                continue
            n_nodes = sizes[dst_cluster]
            k = n_nodes.bit_length()  # Random.randint(0, n_nodes - 1)
            dst_node = getrandbits(k)
            while dst_node >= n_nodes:
                dst_node = getrandbits(k)
            if dst_cluster == my_cluster and dst_node == my_node:
                dst_node = (dst_node + 1) % n_nodes  # never message oneself
                if n_nodes == 1:
                    continue
            node.send_app(NodeId(dst_cluster, dst_node), size)
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
        # The loop draws straight from its stream's generator, which checks
        # neither value; `not (in range)` refuses NaN too.
        if not mean_compute > 0:
            raise ValueError(f"mean_compute must be positive: {mean_compute}")
        if not 0.0 <= request_probability <= 1.0:
            raise ValueError(
                f"request_probability must be in [0, 1]: {request_probability}"
            )
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
    end = federation.application.total_time
    rng = federation.streams.stream(f"exchange/{node.id}").rng
    n_nodes = federation.topology.nodes_in(responder_cluster)
    k = n_nodes.bit_length()
    random = rng.random
    getrandbits = rng.getrandbits
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
                u = random()  # Stream.exponential(mean_compute)
                while u <= 0.0:  # pragma: no cover - probability ~0
                    u = random()
                delay = -mean_compute * log(u)
                if node.sim.now + delay >= end:
                    remaining = end - node.sim.now
                    if remaining > 0:
                        ph["at"] = "drain"
                        yield Timeout(remaining)
                    return
                ph["at"] = "work"
                yield Timeout(delay)
            if not random() < request_probability:
                continue
            dst_node = getrandbits(k)  # Random.randint(0, n_nodes - 1)
            while dst_node >= n_nodes:
                dst_node = getrandbits(k)
            node.send_app(
                NodeId(responder_cluster, dst_node), request_size,
                payload={"request": True},
            )
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
