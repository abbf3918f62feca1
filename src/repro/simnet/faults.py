"""Deterministic fault injection driven by the simulation kernel.

A :class:`FaultSchedule` is a declarative list of timed fault events —
link outages, link degradation and node crash/restart.
:meth:`FaultSchedule.install` spawns one kernel process per event, so
faults fire at exact simulated times and interleave with protocol traffic
like real outages would.  Every injected fault (and its recovery) is
appended to the network tracer's fault ledger
(:attr:`~repro.simnet.trace.Tracer.faults`), which makes chaos runs
auditable after the fact.

Event times are **relative to the install time**, so a schedule built
for "the workload's first 300 seconds" can be installed after an
arbitrary warm-up phase without re-timing every event.

Semantics:

* ``LinkDown`` flips both directions of a link to ``up=False`` (one
  direction with ``duplex=False``); in-flight transfers observe the
  outage the next time they sample the path.  With a ``duration`` the
  link comes back up afterwards.
* ``LinkDegrade`` swaps the link spec for a degraded copy (scaled
  latency/bandwidth, overridden loss) and restores the original spec
  when the window closes.
* ``NodeCrash`` suspends every listener on the node (connects are
  refused, like a dead server process) and, if the node hosts a mobile
  agent server (``node.metadata["mas_server"]``), kills its resident
  agents.  With a ``duration`` the node restarts: listeners return and
  the MAS resumes accepting agents.  Durable state (tickets, results,
  checkpoints) survives by design — it models on-disk storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Generator, Optional, Union

from .link import LinkSpec

if TYPE_CHECKING:  # pragma: no cover
    from .primitives import Process
    from .topology import Network

__all__ = [
    "LinkDown",
    "LinkDegrade",
    "NodeCrash",
    "FaultEvent",
    "FaultSchedule",
]


@dataclass(frozen=True)
class LinkDown:
    """Take the ``src``/``dst`` link down at ``at`` for ``duration`` seconds.

    ``duration=None`` means the outage is permanent.  ``duplex=True``
    (default) affects both directions.
    """

    src: str
    dst: str
    at: float
    duration: Optional[float] = None
    duplex: bool = True

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"negative fault time {self.at!r}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"non-positive outage duration {self.duration!r}")


@dataclass(frozen=True)
class LinkDegrade:
    """Degrade a link for a window: scale latency/bandwidth, override loss.

    The original spec is restored when the window closes.
    """

    src: str
    dst: str
    at: float
    duration: float
    latency_factor: float = 1.0
    bandwidth_factor: float = 1.0
    loss: Optional[float] = None
    duplex: bool = True

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"negative fault time {self.at!r}")
        if self.duration <= 0:
            raise ValueError(f"non-positive degrade duration {self.duration!r}")
        if self.latency_factor <= 0 or self.bandwidth_factor <= 0:
            raise ValueError("degrade factors must be positive")
        if self.loss is not None and not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss {self.loss!r} outside [0, 1)")

    def degraded(self, spec: LinkSpec) -> LinkSpec:
        new = spec.scaled(
            latency_factor=self.latency_factor,
            bandwidth_factor=self.bandwidth_factor,
        )
        if self.loss is not None:
            new = replace(new, loss=self.loss)
        return new


@dataclass(frozen=True)
class NodeCrash:
    """Crash a node at ``at``; restart it after ``duration`` (None = never)."""

    address: str
    at: float
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ValueError(f"negative fault time {self.at!r}")
        if self.duration is not None and self.duration <= 0:
            raise ValueError(f"non-positive downtime {self.duration!r}")


FaultEvent = Union[LinkDown, LinkDegrade, NodeCrash]


@dataclass
class FaultSchedule:
    """An ordered collection of fault events plus the driver that runs them."""

    events: list[FaultEvent] = field(default_factory=list)

    def add(self, event: FaultEvent) -> "FaultSchedule":
        self.events.append(event)
        return self

    def __len__(self) -> int:
        return len(self.events)

    # -- installation ---------------------------------------------------------
    def install(self, network: "Network") -> list["Process"]:
        """Spawn one driver process per event; returns the processes.

        Event times are offsets from the current simulated time.
        """
        procs = []
        for i, event in enumerate(sorted(self.events, key=lambda ev: ev.at)):
            if isinstance(event, LinkDown):
                gen = self._drive_link_down(network, event)
            elif isinstance(event, LinkDegrade):
                gen = self._drive_link_degrade(network, event)
            elif isinstance(event, NodeCrash):
                gen = self._drive_node_crash(network, event)
            else:  # pragma: no cover - guarded by the FaultEvent union
                raise TypeError(f"unknown fault event {event!r}")
            procs.append(
                network.sim.process(gen, name=f"fault:{type(event).__name__}:{i}")
            )
        return procs

    # -- drivers --------------------------------------------------------------
    @staticmethod
    def _edge_pairs(src: str, dst: str, duplex: bool) -> list[tuple[str, str]]:
        return [(src, dst), (dst, src)] if duplex else [(src, dst)]

    def _drive_link_down(self, net: "Network", ev: LinkDown) -> Generator:
        yield net.sim.timeout(ev.at)
        target = f"{ev.src}<->{ev.dst}" if ev.duplex else f"{ev.src}->{ev.dst}"
        for a, b in self._edge_pairs(ev.src, ev.dst, ev.duplex):
            if net.has_link(a, b):
                net.set_link_state(a, b, False)
        net.tracer.log_fault(
            "link-down",
            target,
            detail="permanent" if ev.duration is None else f"for {ev.duration:g}s",
        )
        if ev.duration is None:
            return
        yield net.sim.timeout(ev.duration)
        for a, b in self._edge_pairs(ev.src, ev.dst, ev.duplex):
            if net.has_link(a, b):
                net.set_link_state(a, b, True)
        net.tracer.log_fault("link-up", target)

    def _drive_link_degrade(self, net: "Network", ev: LinkDegrade) -> Generator:
        yield net.sim.timeout(ev.at)
        target = f"{ev.src}<->{ev.dst}" if ev.duplex else f"{ev.src}->{ev.dst}"
        originals: list[tuple[str, str, LinkSpec]] = []
        for a, b in self._edge_pairs(ev.src, ev.dst, ev.duplex):
            if not net.has_link(a, b):
                continue
            old = net.update_link_spec(a, b, ev.degraded(net.link(a, b).spec))
            originals.append((a, b, old))
        net.tracer.log_fault(
            "link-degrade",
            target,
            detail=(
                f"latency x{ev.latency_factor:g}, bandwidth x{ev.bandwidth_factor:g}"
                + (f", loss={ev.loss:g}" if ev.loss is not None else "")
                + f" for {ev.duration:g}s"
            ),
        )
        yield net.sim.timeout(ev.duration)
        for a, b, old in originals:
            if net.has_link(a, b):
                net.update_link_spec(a, b, old)
        net.tracer.log_fault("link-restore", target)

    def _drive_node_crash(self, net: "Network", ev: NodeCrash) -> Generator:
        yield net.sim.timeout(ev.at)
        node = net.node(ev.address)
        mas = node.metadata.get("mas_server")
        # The MAS crash path suspends the node's listeners itself (and must
        # run first — it no-ops once the node is marked crashed).
        if mas is not None and hasattr(mas, "crash"):
            mas.crash()
        else:
            node.suspend_listeners()
        net.tracer.log_fault(
            "node-crash",
            ev.address,
            detail="permanent" if ev.duration is None else f"for {ev.duration:g}s",
        )
        if ev.duration is None:
            return
        yield net.sim.timeout(ev.duration)
        if mas is not None and hasattr(mas, "restart"):
            mas.restart()
        else:
            node.resume_listeners()
        net.tracer.log_fault("node-restart", ev.address)

