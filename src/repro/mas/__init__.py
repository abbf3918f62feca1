"""Mobile agent system substrate (IBM Aglets substitute).

A complete agent runtime built on :mod:`repro.simnet`:

* :class:`MobileAgent` + :class:`AgentContext` — behaviour model with
  migration (`move_to`), completion, disposal, service queries, messaging;
* :class:`MobileAgentServer` — per-site runtime speaking an agent transfer
  protocol, with home-based location tracking, retraction, cloning;
* :class:`Itinerary` — multi-hop travel plans;
* :mod:`~repro.mas.serializer` — the XML travelling form (code + state);
* :mod:`~repro.mas.adapters` — wire-format flavours (Aglets-style /
  Voyager-style) and the gateway-facing :class:`MASAdapter` boundary.
"""

from .agent import AgentContext, MobileAgent
from .adapters import (
    AgletsWireFormat,
    LocalServerAdapter,
    MASAdapter,
    VoyagerWireFormat,
    WireFormat,
    wire_format_by_name,
)
from .errors import (
    AgentBusyError,
    AgentError,
    AgentLifecycleError,
    MigrationError,
    UnknownAgentError,
    UnknownClassError,
)
from .itinerary import Itinerary, Stop
from .messaging import AgentMessage, ServiceAgent
from .serializer import (
    AgentSnapshot,
    deserialize_agent,
    serialize_agent,
    state_from_xml,
    typed_xml,
    value_from_xml,
)
from .server import MAS_PORT, AgentClassRegistry, MobileAgentServer
from .state import AgentState, CompleteSignal, DisposeSignal, MigrationSignal

__all__ = [
    "MobileAgent",
    "AgentContext",
    "MobileAgentServer",
    "AgentClassRegistry",
    "MAS_PORT",
    "Itinerary",
    "Stop",
    "AgentMessage",
    "ServiceAgent",
    "AgentState",
    "MigrationSignal",
    "DisposeSignal",
    "CompleteSignal",
    "AgentSnapshot",
    "serialize_agent",
    "deserialize_agent",
    "typed_xml",
    "value_from_xml",
    "state_from_xml",
    "WireFormat",
    "AgletsWireFormat",
    "VoyagerWireFormat",
    "MASAdapter",
    "LocalServerAdapter",
    "wire_format_by_name",
    "AgentError",
    "UnknownAgentError",
    "UnknownClassError",
    "AgentBusyError",
    "MigrationError",
    "AgentLifecycleError",
]
