"""Agent itineraries: ordered travel plans across network sites.

An :class:`Itinerary` is the classic mobile-agent travel plan (Aglets'
``SeqItinerary``): an ordered list of stops, a cursor, and an origin to
return to.  It serialises to/from plain dicts so it travels inside the
agent's state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["Stop", "Itinerary"]


@dataclass(frozen=True)
class Stop:
    """One itinerary entry: where to go and what task label applies there."""

    address: str
    task: str = ""

    def to_dict(self) -> dict:
        return {"address": self.address, "task": self.task}

    @staticmethod
    def from_dict(data: dict) -> "Stop":
        return Stop(address=str(data["address"]), task=str(data.get("task", "")))


@dataclass
class Itinerary:
    """An ordered multi-hop travel plan with a cursor.

    >>> it = Itinerary(origin="gw", stops=[Stop("bank-a"), Stop("bank-b")])
    >>> it.next_stop().address
    'bank-a'
    >>> it.advance(); it.next_stop().address
    'bank-b'
    >>> it.advance(); it.exhausted
    True
    """

    origin: str
    stops: list[Stop] = field(default_factory=list)
    cursor: int = 0

    def __post_init__(self) -> None:
        if not self.origin:
            raise ValueError("itinerary needs an origin")
        if not 0 <= self.cursor <= len(self.stops):
            raise ValueError(f"cursor {self.cursor} out of range")

    # -- navigation ------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True when every stop has been visited."""
        return self.cursor >= len(self.stops)

    def next_stop(self) -> Optional[Stop]:
        """The stop the agent should travel to next (None when exhausted)."""
        if self.exhausted:
            return None
        return self.stops[self.cursor]

    def advance(self) -> None:
        """Mark the current stop visited."""
        if self.exhausted:
            raise IndexError("itinerary already exhausted")
        self.cursor += 1

    def remaining(self) -> list[Stop]:
        return list(self.stops[self.cursor :])

    def visited(self) -> list[Stop]:
        return list(self.stops[: self.cursor])

    def append(self, stop: Stop) -> None:
        """Extend the plan (context-adaptive agents re-plan en route)."""
        self.stops.append(stop)

    def insert_next(self, stop: Stop) -> None:
        """Insert a stop to be visited immediately after the current one."""
        self.stops.insert(self.cursor, stop)

    # -- wire form ------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "origin": self.origin,
            "cursor": self.cursor,
            "stops": [s.to_dict() for s in self.stops],
        }

    @staticmethod
    def from_dict(data: dict) -> "Itinerary":
        return Itinerary(
            origin=str(data["origin"]),
            stops=[Stop.from_dict(s) for s in data.get("stops", [])],
            cursor=int(data.get("cursor", 0)),
        )
