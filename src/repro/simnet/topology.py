"""Network topology: nodes, links, routing, and datagram delivery.

The :class:`Network` ties together the kernel, the RNG streams, the node
table and the link table.  Routes are shortest paths weighted by base link
latency, computed lazily and cached until the topology changes; single-link
(leaf) hops at either end are taken without a graph search, and so is the
pair left between them when its direct link is provably the one shortest
path, or when no path can leave or reach it.  The routing graph is two
adjacency maps; networkx is imported only when a route needs a search, so
a star deployment, and an AP-cell one whose APs hang off the backbone by
one fast link each, never loads it.

Multi-hop transfers are modelled end-to-end: propagation delay is the sum of
per-link latency samples and serialisation uses the bottleneck (minimum)
bandwidth along the route — the standard fluid approximation, adequate
because the evaluation's quantities are dominated by the wireless first hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional

from .kernel import Simulator
from .link import Link, LinkSpec
from .node import Node
from .rng import StreamFactory
from .trace import Tracer
from repro.telemetry.spans import Telemetry

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Network", "Datagram", "NoRouteError"]


class NoRouteError(Exception):
    """Raised when no path exists between two attached nodes."""


@dataclass(frozen=True)
class Datagram:
    """Connectionless probe message (the paper's '1-bit data' RTT probe)."""

    src: str
    dst: str
    payload: Any
    size: int
    sent_at: float


class Network:
    """A simulated internetwork.

    Parameters
    ----------
    sim:
        The event kernel.  Created internally if omitted.
    master_seed:
        Seed for the :class:`~repro.simnet.rng.StreamFactory`; fully
        determines all stochastic behaviour of a run.
    """

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        master_seed: int = 0,
    ) -> None:
        self.sim = sim if sim is not None else Simulator()
        self.streams = StreamFactory(master_seed)
        # One span sink and metrics registry per network; the tracer keeps
        # the connection and fault ledgers and writes its metrics there too.
        self.telemetry = Telemetry(self.sim)
        self.tracer = Tracer(self.sim, self.telemetry.metrics)
        self._nodes: dict[str, Node] = {}
        self._links: dict[tuple[str, str], Link] = {}
        # The routing graph: successors and predecessors of each node, with
        # the base latency of each link that is up, in insertion order.
        self._succ: dict[str, dict[str, float]] = {}
        self._pred: dict[str, dict[str, float]] = {}
        self._routes: dict[tuple[str, str], list[str]] = {}
        # Derived caches (the links along a path with their bottleneck
        # bandwidth, the networkx graph a search runs on); invalidated
        # together with _routes on topology change.
        self._paths: dict[tuple[str, str], tuple[list[Link], float]] = {}
        self._search_graph: Optional[nx.DiGraph] = None

    def _invalidate_routes(self) -> None:
        self._routes.clear()
        self._paths.clear()
        self._search_graph = None

    # -- topology construction -------------------------------------------------
    def add_node(self, node: Node | str, kind: str = "host", cpu_factor: float = 1.0) -> Node:
        """Attach ``node`` (or create one from an address string)."""
        if isinstance(node, str):
            node = Node(node, kind=kind, cpu_factor=cpu_factor)
        if node.address in self._nodes:
            raise ValueError(f"duplicate node address {node.address!r}")
        node._attach(self)
        self._nodes[node.address] = node
        self._succ[node.address] = {}
        self._pred[node.address] = {}
        return node

    def node(self, address: str) -> Node:
        """Look up a node by address."""
        try:
            return self._nodes[address]
        except KeyError:
            raise KeyError(f"unknown node {address!r}") from None

    def has_node(self, address: str) -> bool:
        return address in self._nodes

    @property
    def nodes(self) -> Iterable[Node]:
        return self._nodes.values()

    def add_link(self, src: str, dst: str, spec: LinkSpec) -> Link:
        """Add a directed link; both endpoints must already be attached."""
        if src not in self._nodes or dst not in self._nodes:
            raise KeyError(f"both endpoints of {src}->{dst} must be nodes")
        if src == dst:
            raise ValueError("self-links are not allowed")
        if (src, dst) in self._links:
            raise ValueError(f"duplicate link {src}->{dst}")
        link = Link(src, dst, spec, self.streams.get(f"link:{src}->{dst}"))
        self._links[(src, dst)] = link
        self._succ[src][dst] = self._pred[dst][src] = spec.latency
        self._invalidate_routes()
        return link

    def add_duplex_link(self, a: str, b: str, spec: LinkSpec) -> tuple[Link, Link]:
        """Add symmetric links a→b and b→a with the same spec."""
        return self.add_link(a, b, spec), self.add_link(b, a, spec)

    def remove_link(self, src: str, dst: str) -> None:
        """Remove a directed link permanently (device mobility/re-homing)."""
        if (src, dst) not in self._links:
            raise KeyError(f"no link {src}->{dst}")
        del self._links[(src, dst)]
        self._succ[src].pop(dst, None)
        self._pred[dst].pop(src, None)
        self._invalidate_routes()

    def remove_duplex_link(self, a: str, b: str) -> None:
        """Remove both directions between ``a`` and ``b``."""
        self.remove_link(a, b)
        self.remove_link(b, a)

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link {src}->{dst}") from None

    def has_link(self, src: str, dst: str) -> bool:
        return (src, dst) in self._links

    def update_link_spec(self, src: str, dst: str, spec: LinkSpec) -> LinkSpec:
        """Swap a link's spec in place (degradation faults); returns the old spec.

        The link keeps its RNG stream and cumulative accounting; routing
        weights are refreshed since the base latency may have changed.
        """
        link = self.link(src, dst)
        old = link.spec
        link.spec = spec
        if dst in self._succ[src]:
            self._succ[src][dst] = self._pred[dst][src] = spec.latency
        self._invalidate_routes()
        return old

    @property
    def links(self) -> Iterable[Link]:
        return self._links.values()

    def set_link_state(self, src: str, dst: str, up: bool) -> None:
        """Take a link down / bring it up; routes are recomputed."""
        link = self.link(src, dst)
        if link.up == up:
            return
        link.up = up
        if up:
            self._succ[src][dst] = self._pred[dst][src] = link.spec.latency
        else:
            del self._succ[src][dst], self._pred[dst][src]
        self._invalidate_routes()

    # -- routing ------------------------------------------------------------
    def route(self, src: str, dst: str) -> list[str]:
        """Shortest-latency node path from ``src`` to ``dst`` (inclusive)."""
        if src == dst:
            return [src]
        key = (src, dst)
        path = self._routes.get(key)
        if path is None:
            if src not in self._nodes or dst not in self._nodes:
                raise KeyError(f"route endpoints {src!r}/{dst!r} must be nodes")
            path = self._leaf_route(src, dst)
            if path is None:
                raise NoRouteError(f"no route {src} -> {dst}")
            self._routes[key] = path
        return path

    def _leaf_route(self, src: str, dst: str) -> Optional[list[str]]:
        """Peel single links off both ends, then settle or search what is left.

        While the head of the path has exactly one out-link, or its tail
        exactly one in-link, that link is a bridge every ``src`` -> ``dst``
        path crosses, so it is taken without a search.  Star routes are
        taken by the two walks alone.  Otherwise a core pair ``(a, b)`` is
        left between them, settled in two cases that need no search:

        1. ``a -> b`` is up and every other link out of ``a``, or every
           other link into ``b``, is strictly slower.  Weights are never
           negative (nor NaN), so every other path is strictly longer and
           ``[a, b]`` is the unique shortest path.  An AP-cell route's
           ``(ap, backbone)`` core is settled so: the LAN uplink beats the
           AP's WLAN links out, and the downlink its WLAN links in.
        2. ``a`` has no out-link or ``b`` no in-link: no route (None).

        Any other core (a tie, a mesh, an AP whose uplink is down while its
        devices still link to it) costs one :meth:`_search`.  A settled or
        searched core is cached under its own pair.  The spliced path is the
        one networkx returns for ``src`` -> ``dst`` whenever the shortest
        path is unique, as it is on a tree.  A walk that comes back to a
        node it peeled is a closed loop short of the other end: no route.
        """
        succ, pred = self._succ, self._pred
        head = {src: 0}  # peeled node -> its position on the path
        node = src
        while node != dst and len(succ[node]) == 1:
            (node,) = succ[node]
            if node in head:
                return None
            head[node] = len(head)
        if node == dst:
            return list(head)
        core_src = node
        tail = {dst: None}
        node = dst
        while len(pred[node]) == 1:
            (node,) = pred[node]
            if node in head:  # the walks meet
                return list(head)[: head[node] + 1] + list(tail)[::-1]
            if node in tail:
                return None
            tail[node] = None
        core = (core_src, node)
        middle = self._routes.get(core)
        if middle is None:
            out, into = succ[core_src], pred[node]
            if not out or not into:
                return None
            weight = out.get(node)
            if weight is not None and (
                all(w > weight for x, w in out.items() if x != node)
                or all(w > weight for x, w in into.items() if x != core_src)
            ):
                middle = [core_src, node]
            else:
                middle = self._search(*core)
                if middle is None:
                    return None
            self._routes[core] = middle
        return list(head) + middle[1:-1] + list(tail)[::-1]

    def _search(self, src: str, dst: str) -> Optional[list[str]]:
        """``nx.shortest_path`` weighted by base latency; None if there is none.

        networkx is imported here, on the first search, and the graph it
        searches is built from the adjacency maps at most once per topology
        version.  That graph's predecessor lists follow node order, not the
        order links came up in, which can only change which of two
        equal-length paths is taken.
        """
        import networkx as nx

        graph = self._search_graph
        if graph is None:
            graph = self._search_graph = nx.DiGraph()
            graph.add_nodes_from(self._succ)
            graph.add_weighted_edges_from(
                (a, b, w) for a, out in self._succ.items() for b, w in out.items()
            )
        try:
            return nx.shortest_path(graph, src, dst, weight="weight")
        except nx.NetworkXNoPath:
            return None

    def _path(self, src: str, dst: str) -> tuple[list[Link], float]:
        """The links along the current route and their minimum bandwidth."""
        path = self._paths.get((src, dst))
        if path is None:
            nodes = self.route(src, dst)
            links = [self._links[(a, b)] for a, b in zip(nodes, nodes[1:])]
            bottleneck = min(l.spec.bandwidth for l in links) if links else float("inf")
            path = self._paths[(src, dst)] = (links, bottleneck)
        return path

    def path_links(self, src: str, dst: str) -> list[Link]:
        """Links along the current route from ``src`` to ``dst``."""
        return self._path(src, dst)[0]

    # -- end-to-end delay sampling ------------------------------------------
    def sample_path_delay(self, src: str, dst: str, size: int) -> tuple[float, int]:
        """One end-to-end delivery attempt: ``(delay, retries)``.

        Each link samples its own jitter; a sampled loss on any link costs
        that link's RTO and restarts the attempt (bounded retries are the
        transport's job — here we model until success, counting retries).
        A link's stream draws loss until a success, then one jitter sample,
        link by link; a lossless link makes no loss draw, as
        ``bernoulli(0.0)`` would draw nothing.
        """
        links, bottleneck = self._path(src, dst)
        if not links:
            return 0.0, 0
        delay = 0.0
        retries = 0
        for link in links:
            spec = link.spec
            stream = link.stream
            link_retries = 0
            if spec.loss:
                while stream.bernoulli(spec.loss):
                    link_retries += 1
                    delay += spec.rto
                    if retries + link_retries > 64:  # pathological spec; avoid unbounded loop
                        raise RuntimeError(
                            f"link {link.key} lost 64 consecutive transfers"
                        )
                link.retransmissions += link_retries
                retries += link_retries
            delay += spec.sample_latency(stream)
            link.bytes_carried += size
            link.transfers += 1
        delay += size / bottleneck
        return delay, retries

    # -- datagram service ------------------------------------------------------
    def send_datagram(
        self, src: str, dst: str, payload: Any = None, size: int = 1
    ) -> None:
        """Fire-and-forget delivery of a small probe message.

        Delivery is a background process; the datagram appears in the
        destination node's :attr:`~repro.simnet.node.Node.datagrams` mailbox
        after the sampled one-way delay.
        """
        dgram = Datagram(src, dst, payload, size, self.sim.now)
        self.sim.process(self._deliver(dgram), name=f"dgram:{src}->{dst}")

    def _deliver(self, dgram: Datagram) -> Generator:
        delay, _ = self.sample_path_delay(dgram.src, dgram.dst, dgram.size)
        yield self.sim.timeout(delay)
        self.node(dgram.dst).datagrams.put(dgram)
        self.telemetry.metrics.counter("datagrams_delivered").inc()

    def ping(self, src: str, dst: str, size: int = 1) -> Generator:
        """Process: measure one RTT ``src`` → ``dst`` → ``src`` (returns seconds).

        This is the §3.5 probe: the reflector echoes immediately, so the
        measured value is the two sampled one-way delays.
        """
        t0 = self.sim.now
        fwd, _ = self.sample_path_delay(src, dst, size)
        yield self.sim.timeout(fwd)
        back, _ = self.sample_path_delay(dst, src, size)
        yield self.sim.timeout(back)
        return self.sim.now - t0
