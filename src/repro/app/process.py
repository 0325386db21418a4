"""Application processes.

``compute_communicate_factory`` builds the paper's workload loop: compute
for an exponentially distributed time, then with the configured
probabilities send one message to a uniformly chosen node of some cluster.
Interrupting the process (node failure / cluster rollback) simply stops the
loop; the federation restarts it when recovery completes, which models
re-execution from the restored checkpoint.

``scripted_sender_factory`` drives deterministic scenarios (the Figure 5
worked example, protocol unit tests): an explicit list of timed sends.

Each loop is a :class:`repro.sim.process.Body`: one ``send`` call per step,
its position kept in plain fields, so a live federation pickles as it
stands (:mod:`repro.sim.snapshot`).

Draws
-----

The stochastic loops run once per application message, so each computes
its invariants once, when the body is built: the destination lottery's
cumulative weights and total, the node counts, the mean and the end time.
Each message then draws with the bound C methods of its stream's
``random.Random`` (``Stream.rng``), using the stdlib's own arithmetic:

* destination cluster -- ``choices[bisect(cum, random() * total, 0, hi)]``,
  which is ``Random.choices(choices, weights, k=1)[0]``;
* node -- a ``getrandbits(n.bit_length())`` rejection loop, which is
  ``Random.randint(0, n - 1)``;
* compute time -- ``-mean * log(u)``, redrawing while ``u <= 0.0``, which
  is :meth:`repro.sim.random.Stream.exponential`.

So every draw, and the stream's state after it, is the one those methods
make (``tests/test_sim_random_stats.py`` checks it).  The finite, positive
weight total that ``Random.choices`` checked per draw is guaranteed by
:class:`repro.config.application.ClusterAppSpec`.  A body holds only its
stream's own bound methods; ``node.send_app`` is looked up per message
(``docs/architecture.md`` §The per-message path).
"""

from __future__ import annotations

from bisect import bisect
from itertools import accumulate
from math import log
from typing import TYPE_CHECKING, Callable

from repro.network.message import Message, NodeId
from repro.sim.process import Body, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.federation import Federation
    from repro.cluster.node import Node
    from repro.config.application import ClusterAppSpec

__all__ = ["compute_communicate_factory", "scripted_sender_factory"]

AppFactory = Callable[["Node", "Federation"], object]

#: the wait of a body with nothing left to do: it stays alive until interrupted
_FOREVER = 1e18


def compute_communicate_factory() -> AppFactory:
    """The default stochastic workload (the paper's application model)."""
    return ComputeCommunicate


def _destination_lottery(spec: "ClusterAppSpec", n_clusters: int) -> tuple:
    """One slot per cluster plus "silence" (``None``), compiled once into
    what ``Random.choices`` rebuilds on every call: ``(choices, cum, total,
    hi)``.  A draw is then ``choices[bisect(cum, random() * total, 0, hi)]``,
    which is ``Random.choices(choices, weights, k=1)[0]``."""
    probs = [spec.probability_to(d) for d in range(n_clusters)]
    cum = list(accumulate([*probs, max(0.0, 1.0 - sum(probs))]))
    return [*range(n_clusters), None], cum, cum[-1] + 0.0, len(cum) - 1


class ComputeCommunicate(Body):
    """Compute, then send one message (or none); until the application ends."""

    __slots__ = (
        "node",
        "random",
        "getrandbits",
        "choices",
        "cum",
        "total",
        "hi",
        "sizes",
        "my_cluster",
        "my_node",
        "mean",
        "size",
        "end",
        "working",
        "draining",
    )

    def __init__(self, node: "Node", federation: "Federation"):
        app = federation.application
        spec = app.spec_for(node.id.cluster)
        topology = federation.topology
        rng = federation.streams.stream(f"app/{node.id}").rng
        self.node = node
        self.random = rng.random
        self.getrandbits = rng.getrandbits
        self.choices, self.cum, self.total, self.hi = _destination_lottery(
            spec, topology.n_clusters
        )
        self.sizes = [topology.nodes_in(d) for d in range(topology.n_clusters)]
        self.my_cluster, self.my_node = node.id
        self.mean = spec.mean_compute
        self.size = spec.message_size
        self.end = app.total_time
        self.working = False  # a compute phase is under way
        self.draining = False  # the last wait, up to the end of the application

    def send(self, _value: object) -> Timeout:
        if self.draining:
            raise StopIteration
        node = self.node
        random = self.random
        if self.working:  # the compute phase is over: communicate
            dst_cluster = self.choices[bisect(self.cum, random() * self.total, 0, self.hi)]
            if dst_cluster is not None:
                n_nodes = self.sizes[dst_cluster]
                k = n_nodes.bit_length()  # Random.randint(0, n_nodes - 1)
                getrandbits = self.getrandbits
                dst_node = getrandbits(k)
                while dst_node >= n_nodes:
                    dst_node = getrandbits(k)
                if dst_cluster != self.my_cluster or dst_node != self.my_node:
                    node.send_app(NodeId(dst_cluster, dst_node), self.size)
                elif n_nodes > 1:  # never message oneself
                    node.send_app(NodeId(dst_cluster, (dst_node + 1) % n_nodes), self.size)
        u = random()  # Stream.exponential(mean)
        while u <= 0.0:  # pragma: no cover - probability ~0
            u = random()
        delay = -self.mean * log(u)
        now = node.sim.now
        if now + delay >= self.end:
            # Work until the end of the application, then stop.
            remaining = self.end - now
            if remaining > 0:
                self.draining = True
                return Timeout(remaining)
            raise StopIteration
        self.working = True
        return Timeout(delay)


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

    def __call__(self, node: "Node", federation: "Federation") -> Body:
        if node.id.cluster == self.responder_cluster:
            node.app_sink = _Responder(node, self.reply_size)
        if node.id.cluster == self.requester_cluster:
            return Requester(node, federation, self)
        return Idle()


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


class Requester(Body):
    """A requester-cluster node: compute, then maybe request; until the
    application ends."""

    __slots__ = (
        "node",
        "random",
        "getrandbits",
        "responder_cluster",
        "n_nodes",
        "mean",
        "probability",
        "size",
        "end",
        "working",
        "draining",
    )

    def __init__(self, node: "Node", federation: "Federation", spec: ExchangeFactory):
        rng = federation.streams.stream(f"exchange/{node.id}").rng
        self.node = node
        self.random = rng.random
        self.getrandbits = rng.getrandbits
        self.responder_cluster = spec.responder_cluster
        self.n_nodes = federation.topology.nodes_in(spec.responder_cluster)
        self.mean = spec.mean_compute
        self.probability = spec.request_probability
        self.size = spec.request_size
        self.end = federation.application.total_time
        self.working = False
        self.draining = False

    def send(self, _value: object) -> Timeout:
        if self.draining:
            raise StopIteration
        node = self.node
        random = self.random
        if self.working and random() < self.probability:
            n_nodes = self.n_nodes
            k = n_nodes.bit_length()  # Random.randint(0, n_nodes - 1)
            getrandbits = self.getrandbits
            dst_node = getrandbits(k)
            while dst_node >= n_nodes:
                dst_node = getrandbits(k)
            node.send_app(
                NodeId(self.responder_cluster, dst_node), self.size,
                payload={"request": True},
            )
        u = random()  # Stream.exponential(mean_compute)
        while u <= 0.0:  # pragma: no cover - probability ~0
            u = random()
        delay = -self.mean * log(u)
        now = node.sim.now
        if now + delay >= self.end:
            remaining = self.end - now
            if remaining > 0:
                self.draining = True
                return Timeout(remaining)
            raise StopIteration
        self.working = True
        return Timeout(delay)


class Idle(Body):
    """A node with nothing to send."""

    __slots__ = ("waited",)

    def __init__(self) -> None:
        self.waited = False

    def send(self, _value: object) -> Timeout:
        if self.waited:
            raise StopIteration
        self.waited = True
        return Timeout(_FOREVER)


class ScriptedSenderFactory:
    """Picklable factory for deterministic timed-send scripts."""

    __slots__ = ("scripts",)

    def __init__(self, scripts: dict):
        self.scripts = {nid: tuple(sorted(items)) for nid, items in scripts.items()}

    def __call__(self, node: "Node", federation: "Federation") -> Body:
        return ScriptedSender(node, self.scripts.get(node.id, ()))


def scripted_sender_factory(scripts: dict) -> AppFactory:
    """Deterministic senders for worked examples and tests.

    :param scripts: maps a :class:`NodeId` to an iterable of
        ``(time, dst, size)`` send instructions (absolute times, sorted).
        Nodes without a script idle forever.
    """
    return ScriptedSenderFactory(scripts)


class ScriptedSender(Body):
    """Send each ``(time, dst, size)`` of a script at its time, then idle."""

    __slots__ = ("node", "script", "index", "due")

    def __init__(self, node: "Node", script: tuple):
        self.node = node
        self.script = script
        self.index = 0  # the next instruction; past the end once idle
        self.due = False  # the wait for script[index] is over: send it

    def send(self, _value: object) -> Timeout:
        node, script, i = self.node, self.script, self.index
        if i > len(script):
            raise StopIteration  # the idle wait is over
        if self.due:
            # The wait already passed the `at < now` check below.
            self.due = False
            _at, dst, size = script[i]
            node.send_app(dst, size)
            i += 1
        while i < len(script):
            at, dst, size = script[i]
            # A restarted script (post-rollback re-execution) skips the
            # instructions whose time already passed: deterministic
            # scenarios assert on protocol state, not on re-sent traffic.
            if at >= node.sim.now:
                delay = at - node.sim.now
                if delay > 0:
                    self.index, self.due = i, True
                    return Timeout(delay)
                node.send_app(dst, size)
            i += 1
        self.index = i + 1
        return Timeout(_FOREVER)
