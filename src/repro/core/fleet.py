"""Fleet tier: consistent-hash task ownership, membership lifecycle, claims.

A deployment's gateways form a *fleet*: every ``task_id`` has exactly one
owner gateway, chosen on a consistent-hash ring (md5 virtual nodes — stable
across processes, deterministic, and insensitive to membership order).
The owner's dedup index is authoritative for that task fleet-wide.

Membership is **epoch-versioned** (:class:`MembershipView`): members move
through ``joining → active → draining/down → active`` and every transition
that changes the ownership ring bumps a monotonic epoch.  Claims carry the
claimant's epoch; an owner answering under a different epoch replies
``stale`` with its current view instead of a verdict computed on a ring the
claimant no longer shares.  A deterministic heartbeat-based failure
detector (suspicion probes on the sim clock) marks silent members ``down``;
a recovered member rejoins at a new epoch.

Dispatch protocol (mint-first):

1. The receiving gateway mints its prospective ticket locally (binding its
   own dedup index).  A gateway alone in its fleet owns every task and
   stops here: its claim resolves ``local`` with no message.
2. If it is not the owner, it sends ``POST /fleet/claim`` to the owner:
   *"bind this task to this ticket unless you already know a different
   one."*  The owner's answer is atomic (a plain, non-yielding handler).
3. ``granted`` → dispatch proceeds; the owner now redirects any retry of
   the task — arriving at *any* gateway — to this ticket.
   ``bound`` → some other gateway won the task earlier; the local
   prospective ticket is superseded and the winner's ticket is returned to
   the device, so a roaming retry never launches a second agent.
4. A claim that cannot reach the owner (bounded retries, per-round
   timeouts, and a forwarding circuit breaker — re-checked every round —
   so a dead owner is not re-probed on every upload) falls to **hinted
   handoff**: the owner's ring successor arbitrates on its behalf and
   replays the binding when the owner answers heartbeats again.  Only when
   the standby is unreachable too does the claim degrade to blind local
   accept; either way a background reconciler re-claims until the owner
   answers, superseding the local ticket if the owner meanwhile knows a
   different winner.

The claim RPC is never interrupted on timeout: the in-flight request is
left to finish in the background (the owner's bind is idempotent — a late
``granted`` simply confirms the ticket the forwarder already holds), which
keeps the race window free of connection-teardown complexity.
"""

from __future__ import annotations

import hashlib
from bisect import bisect
from typing import TYPE_CHECKING, Callable, Generator, Optional

from ..simnet.http import request as http_request
from ..simnet.transport import NoRouteError, TransportError
from ..xmlcodec import Element, parse_bytes, write_bytes
from .retry import CircuitBreaker

if TYPE_CHECKING:  # pragma: no cover
    from .gateway import Gateway

__all__ = [
    "HashRing",
    "MembershipView",
    "Fleet",
    "FleetClient",
    "MEMBER_STATES",
    "FLEET_CLAIM_PATH",
    "FLEET_RELEASE_PATH",
    "FLEET_HEARTBEAT_PATH",
    "FLEET_MIGRATE_PATH",
]

FLEET_CLAIM_PATH = "/fleet/claim"
FLEET_RELEASE_PATH = "/fleet/release"
FLEET_HEARTBEAT_PATH = "/fleet/heartbeat"
FLEET_MIGRATE_PATH = "/fleet/migrate"

#: Member lifecycle states.  ``joining`` members are known but not yet on
#: the ring; ``draining`` members are leaving gracefully (out of the ring,
#: still answering); ``down`` members failed the suspicion probe.
MEMBER_STATES = ("joining", "active", "draining", "down")

#: Claim RPC rounds against the owner before degrading to
#: local-accept-with-reconciliation, and each round's timeout (seconds).
FLEET_CLAIM_ATTEMPTS = 2
FLEET_CLAIM_TIMEOUT_S = 3.0
#: Forwarding circuit breaker: the cooldown before a half-open retry of an
#: owner presumed down.
FLEET_BREAKER_COOLDOWN_S = 15.0
#: Release attempts, and the pause between them, before counting
#: ``fleet.release_failed`` and letting the stale owner binding age out via
#: its TTL.
FLEET_RELEASE_ATTEMPTS = 3
FLEET_RELEASE_RETRY_S = 2.0


def _hash(key: str) -> int:
    """64-bit ring position; md5 keeps it stable across runs and machines."""
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring over gateway addresses with virtual nodes."""

    def __init__(self, members: list[str] | tuple[str, ...], replicas: int = 32) -> None:
        members = tuple(sorted(set(members)))
        if not members:
            raise ValueError("hash ring needs at least one member")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.members = members
        self.replicas = replicas
        points = sorted(
            (_hash(f"{member}#{i}"), member)
            for member in members
            for i in range(replicas)
        )
        self._points = points
        self._keys = [p[0] for p in points]

    def owner(self, key: str) -> str:
        if len(self.members) == 1:
            return self.members[0]
        idx = bisect(self._keys, _hash(key)) % len(self._points)
        return self._points[idx][1]


class MembershipView:
    """Shared, epoch-versioned fleet membership with a failure detector.

    One view object is shared by reference across every gateway of a
    deployment (it models the gossip/registry plane).  The ownership ring
    is rebuilt over the ``active`` members at every epoch bump, so joins,
    drains and failures move keys with the bounded displacement the
    consistent-hash ring guarantees.

    The failure detector is pull-based and deterministic: a gateway that
    cannot reach a peer arms a suspicion probe (``/fleet/heartbeat`` on the
    sim clock); a member silent past the suspicion timeout is marked
    ``down`` and a heartbeat from a ``down`` member rejoins it at a new
    epoch — recovery is indistinguishable from a fresh join.
    """

    def __init__(self, members: list[str] | tuple[str, ...], replicas: int = 32) -> None:
        ordered = tuple(sorted(set(members)))
        if not ordered:
            raise ValueError("membership view needs at least one member")
        self.replicas = replicas
        self._states: dict[str, str] = {m: "active" for m in ordered}
        self.epoch = 1
        #: Every epoch bump, oldest first: ``(epoch, reason, member)``.
        #: ``reason`` is one of ``bootstrap | join | drain | down``.
        self.epoch_log: list[tuple[int, str, str]] = [(1, "bootstrap", "")]
        #: Completed graceful drains: ``(member, epoch_at_completion)``.
        self.drains_completed: list[tuple[str, int]] = []
        self._listeners: list[Callable[[int, str, str], None]] = []
        self._last_heartbeat: dict[str, float] = {}
        self._ring_cache: dict[tuple[str, ...], HashRing] = {}
        self._ring = self._ring_for(ordered)

    # ------------------------------------------------------------ membership
    @property
    def members(self) -> tuple[str, ...]:
        """Every known member, whatever its state."""
        return tuple(sorted(self._states))

    @property
    def active_members(self) -> tuple[str, ...]:
        return tuple(
            m for m in sorted(self._states) if self._states[m] == "active"
        )

    def state(self, member: str) -> str:
        return self._states.get(member, "")

    @property
    def states(self) -> dict[str, str]:
        return dict(self._states)

    # ------------------------------------------------------------ ownership
    def owner(self, key: str) -> str:
        return self._ring.owner(key)

    def owner_excluding(self, key: str, member: str) -> str:
        """Ring owner of ``key`` with ``member`` removed — the hinted-handoff
        standby while ``member`` is suspected but not yet marked down."""
        candidates = tuple(m for m in self._ring.members if m != member)
        if not candidates:
            return ""
        return self._ring_for(candidates).owner(key)

    def successor(self, member: str) -> str:
        """The next *active* member after ``member`` in address order.

        The drain protocol's single deterministic handoff target: state that
        cannot be routed by task key (tickets are found by their id's origin
        prefix) migrates here, and collects against a non-active origin are
        relayed here.  ``""`` when no other member is active.
        """
        ordered = [
            m
            for m in sorted(self._states)
            if m != member and self._states[m] == "active"
        ]
        if not ordered:
            return ""
        for candidate in ordered:
            if candidate > member:
                return candidate
        return ordered[0]

    def _ring_for(self, members: tuple[str, ...]) -> HashRing:
        ring = self._ring_cache.get(members)
        if ring is None:
            ring = HashRing(members, replicas=self.replicas)
            self._ring_cache[members] = ring
        return ring

    def _ring_members(self) -> tuple[str, ...]:
        active = self.active_members
        if active:
            return active
        # Degenerate fleets (everything draining/down at once) keep the
        # least-bad ring instead of none: better a suspect owner than no
        # ownership map at all.
        not_down = tuple(
            m for m in sorted(self._states) if self._states[m] != "down"
        )
        return not_down or self.members

    # ------------------------------------------------------------ transitions
    def add_listener(self, fn: Callable[[int, str, str], None]) -> None:
        """``fn(epoch, reason, member)`` runs synchronously per epoch bump."""
        self._listeners.append(fn)

    def _bump(self, reason: str, member: str) -> None:
        self.epoch += 1
        self._ring = self._ring_for(self._ring_members())
        self.epoch_log.append((self.epoch, reason, member))
        for fn in list(self._listeners):
            fn(self.epoch, reason, member)

    def join(self, member: str) -> None:
        """Announce a new member; it stays off the ring until activated."""
        if self._states.get(member) == "active":
            return
        self._states[member] = "joining"

    def activate(self, member: str) -> None:
        """Put a joining (or recovered) member on the ring at a new epoch."""
        if self._states.get(member) == "active":
            return
        self._states[member] = "active"
        self._bump("join", member)

    # A recovered member's activate and a fresh join are the same ring event.
    rejoin = activate

    def begin_drain(self, member: str) -> None:
        """Start a graceful departure: off the ring, still answering."""
        if self._states.get(member) in (None, "draining", "down"):
            return
        self._states[member] = "draining"
        self._bump("drain", member)

    def finish_drain(self, member: str) -> None:
        """Record that ``member`` finished migrating its owned state."""
        self.drains_completed.append((member, self.epoch))

    def mark_down(self, member: str) -> None:
        """Failure detector verdict: ``member`` is silent past suspicion."""
        if self._states.get(member) in (None, "down"):
            return
        self._states[member] = "down"
        self._bump("down", member)

    def record_heartbeat(self, member: str, now: float) -> None:
        """A liveness proof for ``member``; rejoins it if marked down."""
        if member not in self._states:
            return
        self._last_heartbeat[member] = now
        if self._states[member] == "down":
            self.rejoin(member)

    def last_heartbeat(self, member: str) -> Optional[float]:
        return self._last_heartbeat.get(member)


class Fleet:
    """Shared fleet membership + ownership map (epoch-versioned)."""

    def __init__(self, members: list[str] | tuple[str, ...], replicas: int = 32) -> None:
        self.view = MembershipView(members, replicas=replicas)

    @property
    def ring(self) -> HashRing:
        return self.view._ring

    @property
    def members(self) -> tuple[str, ...]:
        return self.view.members

    @property
    def epoch(self) -> int:
        return self.view.epoch

    def owner(self, task_id: str) -> str:
        return self.view.owner(task_id)

    def __contains__(self, address: str) -> bool:
        return address in self.view._states

    def __len__(self) -> int:
        return len(self.view._states)


# ------------------------------------------------------------------ wire XML
def claim_request(
    task_id: str,
    ticket_id: str,
    claimant: str,
    epoch: int = 0,
    on_behalf_of: str = "",
) -> bytes:
    attrs = {"task": task_id, "ticket": ticket_id, "from": claimant}
    if epoch:
        attrs["epoch"] = str(epoch)
    if on_behalf_of:
        attrs["for"] = on_behalf_of
    return write_bytes(Element("claim", attrs))


def claim_reply(
    verdict: str,
    ticket_id: str,
    agent_id: str = "",
    epoch: int = 0,
    owner: str = "",
) -> bytes:
    attrs = {"verdict": verdict}
    if epoch:
        attrs["epoch"] = str(epoch)
    doc = Element("claimreply", attrs)
    doc.add("ticket", text=ticket_id)
    doc.add("agent", text=agent_id)
    if owner:
        doc.add("owner", text=owner)
    return write_bytes(doc)


def release_request(task_id: str, ticket_id: str) -> bytes:
    doc = Element("release", {"task": task_id, "ticket": ticket_id})
    return write_bytes(doc)


def heartbeat_request(sender: str, epoch: int) -> bytes:
    doc = Element("heartbeat", {"from": sender, "epoch": str(epoch)})
    return write_bytes(doc)


class FleetClient:
    """One gateway's forwarding side of the fleet protocol."""

    def __init__(self, gateway: "Gateway", fleet: Fleet) -> None:
        self.gateway = gateway
        self.fleet = fleet
        self.breaker = CircuitBreaker(gateway.sim, cooldown=FLEET_BREAKER_COOLDOWN_S)

    # ------------------------------------------------------------ claim RPC
    def claim(
        self, task_id: str, ticket_id: str
    ) -> Generator[object, object, tuple[str, str, str]]:
        """Process: claim ``task_id`` for ``ticket_id`` at its owner.

        Returns ``(verdict, winner_ticket, winner_agent)`` where verdict is
        one of ``"local"`` (this gateway owns the task — its own dedup index
        is already authoritative), ``"granted"``, ``"bound"`` (the owner
        knows a different winning ticket), ``"handoff"`` (the owner is
        unreachable; its ring successor accepted the claim on its behalf and
        will replay it — reconcile in the background), or ``"unreachable"``
        (standby unreachable too: degrade to local accept and reconcile).

        The owner and the circuit breaker are re-resolved **every round**:
        an epoch change mid-claim retargets the next round, and a breaker
        that opens mid-loop stops the probing immediately instead of
        burning the remaining rounds against a dead owner.
        """
        gw = self.gateway
        metrics = gw.metrics
        owner = self.fleet.owner(task_id)
        for _attempt in range(FLEET_CLAIM_ATTEMPTS):
            owner = self.fleet.owner(task_id)
            if owner == gw.address:
                return ("local", "", "")
            if self.breaker.is_open(owner):
                metrics.counter("fleet.claim_skipped_breaker_open").inc()
                break
            outcome = yield from self.claim_at(owner, task_id, ticket_id)
            if outcome is None:
                continue
            verdict, winner, agent = outcome
            if verdict == "stale":
                # The owner answered under a different epoch: the shared
                # view has already moved, so the next round re-resolves
                # ownership instead of trusting a wrong verdict.
                metrics.counter("fleet.claim_stale_epoch").inc()
                continue
            if verdict == "bound" and winner != ticket_id:
                metrics.counter("fleet.claim_bound").inc()
                return ("bound", winner, agent)
            # "granted", or "bound" to our own ticket (our earlier timed-out
            # claim landed after all): either way the task is ours.
            metrics.counter("fleet.claim_granted").inc()
            return ("granted", "", "")
        if owner == gw.address:
            return ("local", "", "")
        handed = yield from self._handoff(task_id, ticket_id, owner)
        if handed is not None:
            return handed
        return ("unreachable", "", "")

    def claim_at(
        self,
        target: str,
        task_id: str,
        ticket_id: str,
        on_behalf_of: str = "",
    ) -> Generator[object, object, Optional[tuple[str, str, str]]]:
        """Process: one epoch-tagged claim round against ``target``.

        Returns ``(verdict, winner_ticket, winner_agent)`` or ``None`` when
        the round failed (timeout/transport); failures feed the breaker and
        arm the suspicion probe.  Shared by the claim loop, the hinted
        handoff, and hint replay.
        """
        gw = self.gateway
        sim = gw.sim
        view = self.fleet.view
        body = claim_request(
            task_id,
            ticket_id,
            gw.address,
            epoch=view.epoch,
            on_behalf_of=on_behalf_of,
        )
        rpc = sim.process(
            self._rpc(target, FLEET_CLAIM_PATH, body, purpose="fleet-claim"),
            name=f"fleet-claim:{ticket_id}",
        )
        deadline = sim.timeout(FLEET_CLAIM_TIMEOUT_S)
        fired = yield sim.any_of([rpc, deadline])
        if rpc not in fired:
            # Timed out.  The RPC is left running: the owner's bind is
            # idempotent, so a late grant is harmless.
            self.breaker.record_failure(target)
            gw.metrics.counter("fleet.claim_timeout").inc()
            gw._suspect_member(target)
            return None
        ok, payload = fired[rpc]
        if not ok:
            self.breaker.record_failure(target)
            gw.metrics.counter("fleet.claim_error").inc()
            gw._suspect_member(target)
            return None
        self.breaker.record_success(target)
        view.record_heartbeat(target, sim.now)
        verdict = payload.get("verdict", "")
        return (verdict, payload.findtext("ticket"), payload.findtext("agent"))

    def _handoff(
        self, task_id: str, ticket_id: str, owner: str
    ) -> Generator[object, object, Optional[tuple[str, str, str]]]:
        """Process: claim at the owner's ring standby while it is suspect."""
        gw = self.gateway
        view = self.fleet.view
        standby = view.owner_excluding(task_id, owner)
        if not standby or standby == owner:
            return None
        if standby == gw.address:
            # This gateway *is* the standby: its own dedup (bound at mint)
            # arbitrates, and it remembers the hint for the owner's return.
            gw._record_handoff_hint(task_id, ticket_id, owner)
            gw.metrics.counter("fleet.handoff_local").inc()
            return ("handoff", "", "")
        if self.breaker.is_open(standby):
            return None
        outcome = yield from self.claim_at(
            standby, task_id, ticket_id, on_behalf_of=owner
        )
        if outcome is None:
            return None
        verdict, winner, agent = outcome
        if verdict == "bound" and winner != ticket_id:
            gw.metrics.counter("fleet.handoff_bound").inc()
            return ("bound", winner, agent)
        if verdict == "granted":
            gw.metrics.counter("fleet.handoff_granted").inc()
            return ("handoff", "", "")
        return None

    def release(self, task_id: str, ticket_id: str) -> Generator:
        """Process: unbind at the owner (failed dispatch path).

        Bounded retries with a deterministic pause; exhaustion is counted
        (``fleet.release_failed``) — the binding then lingers until its TTL
        instead of silently forever, and operators can see it happened.
        """
        gw = self.gateway
        body = release_request(task_id, ticket_id)
        for attempt in range(FLEET_RELEASE_ATTEMPTS):
            # Re-resolve per attempt: an epoch change may have moved the
            # task home (nothing to release) or to a reachable owner.
            owner = self.fleet.owner(task_id)
            if owner == gw.address:
                return
            ok, _ = yield from self._rpc(
                owner, FLEET_RELEASE_PATH, body, purpose="fleet-release"
            )
            if ok:
                if attempt:
                    gw.metrics.counter("fleet.release_recovered").inc()
                return
            if attempt + 1 < FLEET_RELEASE_ATTEMPTS:
                yield gw.sim.timeout(FLEET_RELEASE_RETRY_S)
        gw.metrics.counter("fleet.release_failed").inc()

    def _rpc(
        self, owner: str, path: str, body: bytes, purpose: str
    ) -> Generator[object, object, tuple[bool, object]]:
        """One intra-fleet POST; never raises (safe under ``any_of``)."""
        gw = self.gateway
        try:
            resp = yield from http_request(
                gw.network,
                gw.address,
                owner,
                "POST",
                path,
                body=body,
                body_size=len(body),
                port=gw.http.port,
                purpose=purpose,
                raise_for_status=False,
            )
        except (TransportError, NoRouteError) as exc:
            return (False, str(exc))
        if not resp.ok:
            return (False, f"{resp.status} {resp.reason}")
        try:
            return (True, parse_bytes(resp.body))
        except Exception as exc:  # noqa: BLE001 - malformed peer reply
            return (False, f"bad reply: {exc}")
