"""Agent lifecycle states and control-flow signals.

Control-flow signals are exceptions an agent raises *through* its behaviour
generator to hand control back to the hosting server — the same structure as
Aglets, where ``dispatch()``/``dispose()`` abort the current execution and
the server performs the requested transition.
"""

from __future__ import annotations

import enum
from typing import Any

__all__ = [
    "AgentState",
    "MigrationSignal",
    "DisposeSignal",
    "CompleteSignal",
]


class AgentState(enum.Enum):
    """Lifecycle of a mobile agent.

    ``CREATED`` → ``ACTIVE`` (behaviour running) → ``IDLE`` (resident,
    message-driven) / ``MIGRATING`` (in transit) / ``COMPLETED`` (result
    recorded, awaiting collection) → ``RETRACTED`` / ``DISPOSED``.
    """

    CREATED = "created"
    ACTIVE = "active"
    IDLE = "idle"
    MIGRATING = "migrating"
    COMPLETED = "completed"
    RETRACTED = "retracted"
    DISPOSED = "disposed"

    @property
    def terminal(self) -> bool:
        return self in (AgentState.RETRACTED, AgentState.DISPOSED)


class MigrationSignal(Exception):
    """Agent requested a move; the server serialises and transfers it."""

    def __init__(self, destination: str) -> None:
        super().__init__(destination)
        self.destination = destination


class DisposeSignal(Exception):
    """Agent requested its own disposal."""


class CompleteSignal(Exception):
    """Agent finished its task; ``result`` is recorded at the current server."""

    def __init__(self, result: Any) -> None:
        super().__init__("completed")
        self.result = result
