"""Network nodes.

A :class:`Node` is an addressable entity in a :class:`~repro.simnet.topology.Network`:
a handheld device, a gateway, a bank site, a web server.  Nodes expose

* a listener table (``port`` → accept callback) for the connection-oriented
  transport, and
* a datagram mailbox for the lightweight probe traffic used by the
  nearest-gateway RTT discovery (§3.5 of the paper sends "1-bit data").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from .resources import Mailbox

if TYPE_CHECKING:  # pragma: no cover
    from .topology import Network
    from .transport import Connection

__all__ = ["Node"]

AcceptCallback = Callable[["Connection"], None]


class Node:
    """An addressable simulation entity.

    Parameters
    ----------
    address:
        Unique string address, e.g. ``"gateway-0"`` or ``"pda"``.
    kind:
        Free-form role tag used in traces (``"device"``, ``"gateway"``,
        ``"site"``, ``"server"``).
    cpu_factor:
        Multiplier applied to simulated compute delays executed *on* this
        node; >1 models slow handheld CPUs, <1 fast desktops.
    """

    def __init__(self, address: str, kind: str = "host", cpu_factor: float = 1.0) -> None:
        if not address:
            raise ValueError("node address must be non-empty")
        if cpu_factor <= 0:
            raise ValueError(f"cpu_factor must be positive, got {cpu_factor!r}")
        self.address = address
        self.kind = kind
        self.cpu_factor = cpu_factor
        self.network: Optional["Network"] = None
        self._listeners: dict[int, AcceptCallback] = {}
        self._suspended_listeners: dict[int, AcceptCallback] = {}
        self.crashed = False
        self._datagrams: Optional[Mailbox] = None
        self.metadata: dict[str, Any] = {}

    # -- wiring ------------------------------------------------------------
    def _attach(self, network: "Network") -> None:
        if self.network is not None and self.network is not network:
            raise RuntimeError(f"node {self.address!r} already attached")
        self.network = network

    @property
    def attached(self) -> bool:
        return self.network is not None

    @property
    def datagrams(self) -> Mailbox:
        """Mailbox receiving connectionless probe datagrams.

        Built on first use: most nodes (a population's devices) are never
        sent one and never wait for one.
        """
        if self._datagrams is None:
            if self.network is None:
                raise RuntimeError(f"node {self.address!r} is not attached to a network")
            self._datagrams = Mailbox(self.network.sim)
        return self._datagrams

    # -- listeners -----------------------------------------------------------
    def listen(self, port: int, on_accept: AcceptCallback) -> None:
        """Register an accept callback for incoming connections on ``port``."""
        if port in self._listeners:
            raise ValueError(f"{self.address}:{port} already has a listener")
        self._listeners[port] = on_accept

    def unlisten(self, port: int) -> None:
        """Remove the listener on ``port`` (no-op if absent)."""
        self._listeners.pop(port, None)

    def listener(self, port: int) -> Optional[AcceptCallback]:
        return self._listeners.get(port)

    # -- crash / restart ------------------------------------------------------
    def suspend_listeners(self) -> None:
        """Simulated host crash: drop every listener until :meth:`resume_listeners`.

        Incoming connections are refused while suspended (exactly like a
        machine whose server processes died); the listener table is stashed so
        a restart restores the same services.  Idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        self._suspended_listeners = dict(self._listeners)
        self._listeners.clear()

    def resume_listeners(self) -> None:
        """Restart after :meth:`suspend_listeners`: restore stashed listeners.

        Ports (re)bound while the node was down keep their current listener.
        Idempotent.
        """
        if not self.crashed:
            return
        self.crashed = False
        for port, accept in self._suspended_listeners.items():
            self._listeners.setdefault(port, accept)
        self._suspended_listeners = {}

    # -- compute -------------------------------------------------------------
    def compute(self, seconds: float):
        """Event representing ``seconds`` of work on this node's CPU.

        The nominal duration is scaled by :attr:`cpu_factor`, so the same
        packing/parsing work costs more on a PDA than on a gateway.
        """
        if self.network is None:
            raise RuntimeError(f"node {self.address!r} is not attached to a network")
        return self.network.sim.timeout(seconds * self.cpu_factor)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.address!r} kind={self.kind!r}>"
