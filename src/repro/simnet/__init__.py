"""Discrete-event network simulation substrate.

This package replaces the paper's physical testbed (PDA + wireless link +
wired Internet + Tomcat gateway host) with a deterministic simulator:

* :mod:`~repro.simnet.kernel` — event loop and generator-based processes;
* :mod:`~repro.simnet.link` / :mod:`~repro.simnet.topology` — links with
  latency/bandwidth/jitter/loss/setup models, routing over adjacency maps
  (networkx is imported only when a route needs a graph search);
* :mod:`~repro.simnet.transport` — reliable connections with a per-connection
  open-time ledger ("internet connection time" is measured here);
* :mod:`~repro.simnet.http` — the HTTP request/response layer PDAgent and the
  baselines speak;
* :mod:`~repro.simnet.rng` — named seeded random streams for reproducible
  trials.
"""

from .faults import (
    FaultEvent,
    FaultSchedule,
    LinkDegrade,
    LinkDown,
    NodeCrash,
    Partition,
)
from .kernel import Simulator
from .link import Link, LinkSpec
from .node import Node
from .primitives import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    InterruptException,
    Process,
    Timeout,
)
from .resources import Mailbox, Resource, Store
from .rng import Stream, StreamFactory
from .topology import Datagram, Network, NoRouteError
from .trace import ConnectionRecord, FaultRecord, Tracer
from .transport import (
    Connection,
    ConnectionClosed,
    ConnectionRefused,
    Message,
    Socket,
    TransportError,
    connect,
)
from .http import (
    DEFAULT_HTTP_PORT,
    HttpError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    request,
)

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "InterruptException",
    "AllOf",
    "AnyOf",
    "Store",
    "Resource",
    "Mailbox",
    "Stream",
    "StreamFactory",
    "LinkSpec",
    "Link",
    "Node",
    "Network",
    "Datagram",
    "NoRouteError",
    "Tracer",
    "ConnectionRecord",
    "FaultRecord",
    "FaultEvent",
    "FaultSchedule",
    "LinkDown",
    "LinkDegrade",
    "NodeCrash",
    "Partition",
    "Connection",
    "Socket",
    "Message",
    "connect",
    "ConnectionClosed",
    "ConnectionRefused",
    "TransportError",
    "HttpServer",
    "HttpRequest",
    "HttpResponse",
    "HttpError",
    "request",
    "DEFAULT_HTTP_PORT",
]
