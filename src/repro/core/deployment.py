"""Deployment builder: wires a complete PDAgent environment together.

A *deployment* (the paper's Fig. 3 operating environment) consists of:

* one central server (gateway address list + trust anchor),
* one or more gateways, each with a co-located mobile agent server,
* network sites, each with a mobile agent server hosting service agents,
* wireless devices running :class:`~repro.core.platform.PDAgentPlatform`.

:class:`DeploymentBuilder` offers a declarative fluent API over the raw
constructors; examples and experiments use it so topology wiring lives in
one audited place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..crypto import KeyVault
from ..device import Device, link_profile
from ..mas import (
    AgentClassRegistry,
    LocalServerAdapter,
    MobileAgentServer,
    ServiceAgent,
    wire_format_by_name,
)
from ..simnet import LinkSpec, Network
from .config import PDAgentConfig
from .fleet import Fleet
from .gateway import Gateway
from .platform import PDAgentPlatform
from .registry import CentralServer
from .subscription import ServiceCatalog, ServiceCode, SubscriptionDirectory

__all__ = ["Deployment", "DeploymentBuilder"]


@dataclass
class Deployment:
    """A fully wired PDAgent environment."""

    network: Network
    registry: AgentClassRegistry
    catalog: ServiceCatalog
    directory: SubscriptionDirectory
    vault: KeyVault
    central: CentralServer
    gateways: dict[str, Gateway] = field(default_factory=dict)
    mas_servers: dict[str, MobileAgentServer] = field(default_factory=dict)
    devices: dict[str, Device] = field(default_factory=dict)
    platforms: dict[str, PDAgentPlatform] = field(default_factory=dict)
    #: The membership/ownership map the gateways share when
    #: ``config.fleet_enabled``; None when each gateway is a fleet of one.
    fleet: Optional[Fleet] = None

    @property
    def sim(self):
        return self.network.sim

    def gateway(self, address: str) -> Gateway:
        return self.gateways[address]

    def platform(self, address: str) -> PDAgentPlatform:
        return self.platforms[address]

    def mas(self, address: str) -> MobileAgentServer:
        return self.mas_servers[address]


class DeploymentBuilder:
    """Fluent construction of a :class:`Deployment`.

    >>> builder = DeploymentBuilder(master_seed=42)
    >>> builder.add_central("central")                    # doctest: +SKIP
    >>> builder.add_gateway("gw-0", uplink="WAN")         # doctest: +SKIP
    >>> builder.add_site("bank-a")                        # doctest: +SKIP
    >>> builder.add_device("pda", wireless="GPRS")        # doctest: +SKIP
    >>> deployment = builder.build()                      # doctest: +SKIP
    """

    def __init__(
        self,
        master_seed: int = 0,
        config: Optional[PDAgentConfig] = None,
        mas_flavour: str = "aglets",
    ) -> None:
        self.config = config or PDAgentConfig()
        self.network = Network(master_seed=master_seed)
        self.registry = AgentClassRegistry()
        self.catalog = ServiceCatalog()
        self.directory = SubscriptionDirectory()
        self.vault = KeyVault(seed=master_seed)
        self.mas_flavour = mas_flavour
        self._central_address: Optional[str] = None
        self._central: Optional[CentralServer] = None
        self._gateways: dict[str, Gateway] = {}
        self._mas_servers: dict[str, MobileAgentServer] = {}
        self._devices: dict[str, Device] = {}
        self._platforms: dict[str, PDAgentPlatform] = {}
        self._backbone = "backbone"
        # All wired infrastructure hangs off a backbone router node, so any
        # gateway/site pair is mutually reachable.
        self.network.add_node(self._backbone, kind="router")

    # ------------------------------------------------------------ helpers
    @staticmethod
    def _resolve_link(link: LinkSpec | str) -> LinkSpec:
        return link_profile(link) if isinstance(link, str) else link

    # ------------------------------------------------------------ infrastructure
    def add_central(self, address: str) -> "DeploymentBuilder":
        """Create the central server on a node wired to the backbone (LAN)."""
        if self._central is not None:
            raise ValueError("deployment already has a central server")
        self.network.add_node(address, kind="server")
        self.network.add_duplex_link(address, self._backbone, link_profile("LAN"))
        self._central = CentralServer(self.network, address, self.vault)
        self._central_address = address
        return self

    def add_gateway(
        self,
        address: str,
        uplink: LinkSpec | str = "LAN",
        register: bool = True,
    ) -> "DeploymentBuilder":
        """Create a gateway + co-located MAS server, and enrol it centrally."""
        if self._central is None:
            raise ValueError("add_central() must come before add_gateway()")
        self.network.add_node(address, kind="gateway")
        self.network.add_duplex_link(address, self._backbone, self._resolve_link(uplink))
        mas = MobileAgentServer(
            self.network,
            address,
            self.registry,
            wire_format=wire_format_by_name(self.mas_flavour),
        )
        mas.hop_reports_enabled = self.config.session_enabled
        self._mas_servers[address] = mas
        gateway = Gateway(
            self.network,
            address,
            adapter=LocalServerAdapter(mas),
            catalog=self.catalog,
            directory=self.directory,
            vault=self.vault,
            config=self.config,
        )
        self._gateways[address] = gateway
        if register:
            self._central.register_gateway(address)
        return self

    def add_site(
        self, address: str, services: Optional[list[ServiceAgent]] = None
    ) -> "DeploymentBuilder":
        """Create a network site (WAN to the backbone) with a MAS server and
        its service agents."""
        self.network.add_node(address, kind="site")
        self.network.add_duplex_link(address, self._backbone, link_profile("WAN"))
        mas = MobileAgentServer(
            self.network,
            address,
            self.registry,
            wire_format=wire_format_by_name(self.mas_flavour),
        )
        mas.hop_reports_enabled = self.config.session_enabled
        self._mas_servers[address] = mas
        for service in services or []:
            mas.register_service(service)
        return self

    def add_access_point(self, address: str) -> "DeploymentBuilder":
        """Create an access-point router wired to the backbone (LAN); a
        device lands in its cell with ``add_device(..., attach_to=address)``."""
        self.network.add_node(address, kind="router")
        self.network.add_duplex_link(address, self._backbone, link_profile("LAN"))
        return self

    def add_device(
        self,
        address: str,
        profile: str = "PDA",
        wireless: LinkSpec | str = "GPRS",
        attach_to: Optional[str] = None,
    ) -> "DeploymentBuilder":
        """Create a device + platform; its wireless link lands on
        ``attach_to`` (default: the backbone, i.e. an access point that can
        reach every gateway)."""
        if self._central_address is None:
            raise ValueError("add_central() must come before add_device()")
        device = Device(self.network, address, profile=profile)
        device.attach_wireless(
            attach_to or self._backbone, self._resolve_link(wireless)
        )
        self._devices[address] = device
        self._platforms[address] = PDAgentPlatform(
            device, self._central_address, config=self.config
        )
        return self

    def publish(self, code: ServiceCode) -> "DeploymentBuilder":
        """Publish an MA application in the deployment catalogue."""
        self.catalog.publish(code)
        return self

    def register_agent_class(self, cls) -> "DeploymentBuilder":
        """Register an agent class with every MAS server of the deployment."""
        self.registry.register(cls)
        return self

    # ------------------------------------------------------------ build
    def build(self) -> Deployment:
        if self._central is None:
            raise ValueError("deployment needs a central server")
        if not self._gateways:
            raise ValueError("deployment needs at least one gateway")
        # Every gateway starts as a fleet of one; fleet_enabled pools them
        # into one shared membership view instead.
        fleet = None
        if self.config.fleet_enabled:
            fleet = Fleet(sorted(self._gateways))
            for gateway in self._gateways.values():
                gateway.enable_fleet(fleet)
            for platform in self._platforms.values():
                # Health-aware selection: devices skip draining/down
                # members and follow drain successor hints on collect.
                platform.selector.membership = fleet.view
        return Deployment(
            fleet=fleet,
            network=self.network,
            registry=self.registry,
            catalog=self.catalog,
            directory=self.directory,
            vault=self.vault,
            central=self._central,
            gateways=dict(self._gateways),
            mas_servers=dict(self._mas_servers),
            devices=dict(self._devices),
            platforms=dict(self._platforms),
        )
