"""PDAgent core — the paper's contribution.

Device side: :class:`PDAgentPlatform` (facade), :mod:`~repro.core.api`
(§3.6 primitives), Agent Dispatcher, Network Manager, gateway selector,
internal RMS database, security.

Infrastructure side: :class:`Gateway` (Fig. 6 pipeline over a pluggable MAS
adapter), :class:`CentralServer` (address list + trust anchor), and the
:class:`DeploymentBuilder` that wires complete environments.
"""

from .admission import AdmissionController, DedupTable, TokenBucket
from .config import DEFAULT_CONFIG, PDAgentConfig
from .deployment import Deployment, DeploymentBuilder
from .device_db import DispatchRecord, InternalDatabase, StoredCode
from .dispatcher import AgentDispatcher
from .errors import (
    AuthorizationError,
    DeploymentError,
    GatewayError,
    GatewayOverloadedError,
    NoGatewayAvailableError,
    PDAgentError,
    ResultExpiredError,
    ResultNotReadyError,
    SubscriptionError,
)
from .fleet import Fleet, FleetClient, HashRing
from .gateway import GATEWAY_PORT, TASK_ID_HEADER, Gateway, Ticket
from .netmanager import NetworkManager
from .packed_info import PackedInfo, PIContent, pack, pi_from_xml, unpack, write_pi
from .platform import (
    CollectedResult,
    DispatchHandle,
    PDAgentPlatform,
    StreamingDispatch,
)
from .registry import CentralServer, GatewayEntry, fetch_gateway_list
from .retry import CircuitBreaker, RetryPolicy
from .security import DeviceSecurity, GatewaySecurity
from .session import SessionManager
from .selection import GatewaySelector, ProbeResult
from .storage import GatewayStorage
from .ui import DeviceUI
from .subscription import (
    ServiceCatalog,
    ServiceCode,
    Subscription,
    SubscriptionDirectory,
    code_from_xml,
    code_to_xml,
)

__all__ = [
    "PDAgentConfig",
    "DeviceUI",
    "DEFAULT_CONFIG",
    "PDAgentPlatform",
    "DispatchHandle",
    "CollectedResult",
    "Gateway",
    "Ticket",
    "GATEWAY_PORT",
    "CentralServer",
    "GatewayEntry",
    "fetch_gateway_list",
    "GatewaySelector",
    "ProbeResult",
    "AgentDispatcher",
    "NetworkManager",
    "RetryPolicy",
    "CircuitBreaker",
    "DeviceSecurity",
    "GatewaySecurity",
    "InternalDatabase",
    "StoredCode",
    "DispatchRecord",
    "ServiceCode",
    "ServiceCatalog",
    "Subscription",
    "SubscriptionDirectory",
    "code_to_xml",
    "code_from_xml",
    "PIContent",
    "PackedInfo",
    "pack",
    "unpack",
    "write_pi",
    "pi_from_xml",
    "Deployment",
    "DeploymentBuilder",
    "PDAgentError",
    "SubscriptionError",
    "DeploymentError",
    "AuthorizationError",
    "ResultNotReadyError",
    "ResultExpiredError",
    "GatewayError",
    "GatewayOverloadedError",
    "NoGatewayAvailableError",
    "AdmissionController",
    "DedupTable",
    "TokenBucket",
    "TASK_ID_HEADER",
    "Fleet",
    "FleetClient",
    "HashRing",
    "GatewayStorage",
    "SessionManager",
    "StreamingDispatch",
]
