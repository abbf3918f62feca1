"""The evaluation scenario: the paper's §4 runtime environment, in one place.

Builds (per run, from a seed):

* central server + one PDAgent gateway (MAS co-located),
* two bank sites, each hosting a MAS :class:`BankServiceAgent` *and* a
  :class:`BankWebServer` front (so every approach hits the same backend
  think time),
* a PDA on a wireless link (client-server + PDAgent run from it),
* a desktop on a wired LAN (the web-based approach runs from it).

Each (approach, n-transactions, trial) measurement uses a **fresh** scenario
so connection ledgers and RNG streams are independent — the paper's "test
runs" are reproduced as distinct master seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from ..baselines import (
    AgentServer,
    BankWebServer,
    ClientAgentServerRunner,
    ClientServerRunner,
    InstalledApp,
    WebBasedRunner,
)
from ..core import Deployment, DeploymentBuilder, PDAgentConfig, PDAgentPlatform
from ..device import Device
from ..mas import Stop

__all__ = [
    "EvaluationScenario",
    "PDAgentRunMetrics",
    "build_scenario",
    "run_pdagent_batch",
    "DEFAULT_BANKS",
]

DEFAULT_BANKS = ("bank-a", "bank-b")


@dataclass
class PDAgentRunMetrics:
    """PDAgent measurements for one batch, using the paper's definitions.

    ``completion_time`` = time sending the PI + time downloading the result
    (both online phases only — §4's stated formula).  ``connection_time``
    is the ledger total for the same two exchanges.
    """

    n_transactions: int
    upload_time: float
    download_time: float
    connection_time: float
    connections: int
    elapsed_total: float
    pi_wire_bytes: int
    result: Any
    gateway: str = ""

    @property
    def completion_time(self) -> float:
        return self.upload_time + self.download_time


@dataclass
class EvaluationScenario:
    """A wired-up §4 environment plus its approach runners."""

    deployment: Deployment
    platform: PDAgentPlatform
    pda: Device
    desktop: Device
    banks: list[str]
    gateway_address: str
    bank_services: dict[str, BankServiceAgent]
    bank_webs: dict[str, BankWebServer]
    agent_server: Optional[AgentServer] = None

    @property
    def sim(self):
        return self.deployment.sim

    @property
    def network(self):
        return self.deployment.network

    # -- workload ------------------------------------------------------------
    def transactions(self, count: int) -> list[dict[str, Any]]:
        return make_transactions(self.banks, count)

    def stops(self) -> list[Stop]:
        return [Stop(bank, task="banking") for bank in self.banks]

    # -- approach runners ------------------------------------------------------
    def client_server_runner(self) -> ClientServerRunner:
        return ClientServerRunner(self.pda)

    def web_based_runner(self) -> WebBasedRunner:
        return WebBasedRunner(self.desktop)

    def client_agent_server_runner(self) -> ClientAgentServerRunner:
        if self.agent_server is None:
            raise RuntimeError("scenario built without an agent server")
        return ClientAgentServerRunner(self.pda, self.agent_server)


def build_scenario(
    seed: int = 0,
    config: Optional[PDAgentConfig] = None,
    banks: tuple[str, ...] = DEFAULT_BANKS,
    n_gateways: int = 1,
    with_agent_server: bool = False,
    wireless: str = "GPRS",
    mas_flavour: str = "aglets",
    device_profile: str = "PDA",
    prewarm: bool = True,
) -> EvaluationScenario:
    """Construct and (optionally) pre-warm the §4 evaluation environment.

    Pre-warming performs the one-time online steps — gateway-list download,
    RTT probing, and the e-banking subscription — so the measured runs
    contain only the steady-state traffic the paper measures.
    """
    builder = DeploymentBuilder(
        master_seed=seed, config=config, mas_flavour=mas_flavour
    )
    builder.add_central("central")
    for i in range(n_gateways):
        builder.add_gateway(f"gw-{i}")
    bank_services: dict[str, BankServiceAgent] = {}
    for bank in banks:
        service = BankServiceAgent(bank_name=bank)
        bank_services[bank] = service
        builder.add_site(bank, services=[service])
    builder.add_device("pda", profile=device_profile, wireless=wireless)
    builder.add_device("desktop", profile="DESKTOP", wireless="LAN")
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    deployment = builder.build()

    # Bank web fronts share the bank nodes (and their think-time model).
    bank_webs = {
        bank: BankWebServer(
            deployment.network.node(bank),
            think_time=bank_services[bank].processing_time,
        )
        for bank in banks
    }

    agent_server: Optional[AgentServer] = None
    if with_agent_server:
        # The agent server reuses gateway 0's MAS (a combined web+MA host).
        gw0 = "gw-0"
        agent_server = AgentServer(
            deployment.network, gw0, deployment.mas(gw0)
        )
        agent_server.install(
            InstalledApp(
                service="ebanking",
                agent_class="EBankingAgent",
                itinerary_builder=lambda params, origin: [
                    Stop(b, task="banking") for b in banks
                ],
            )
        )

    scenario = EvaluationScenario(
        deployment=deployment,
        platform=deployment.platform("pda"),
        pda=deployment.devices["pda"],
        desktop=deployment.devices["desktop"],
        banks=list(banks),
        gateway_address="gw-0",
        bank_services=bank_services,
        bank_webs=bank_webs,
        agent_server=agent_server,
    )
    if prewarm:
        _prewarm(scenario)
    return scenario


def _prewarm(scenario: EvaluationScenario) -> None:
    """One-time online setup: address list, probes, subscription."""

    def setup() -> Generator:
        platform = scenario.platform
        yield from platform.selector.refresh_list()
        if platform.config.selection_policy == "nearest":
            yield from platform.selector.probe_all()
        yield from platform.subscribe(
            "ebanking", gateway=scenario.gateway_address
        )
        return True

    sim = scenario.sim
    proc = sim.process(setup(), name="scenario-prewarm")
    sim.run(until=proc)


def run_pdagent_batch(
    scenario: EvaluationScenario,
    n_transactions: int,
    gateway: Optional[str] = "default",
) -> PDAgentRunMetrics:
    """Execute one PDAgent batch and measure it the way §4 does.

    Online phase 1: upload the PI.  Offline: the agent travels (the device
    may power its radio down).  Online phase 2: download the result once the
    agent is back — the experiment uses the gateway's completion event as
    the "user reconnects later" oracle, so no polling traffic is added
    (matching the paper's two-connection accounting).
    """
    sim = scenario.sim
    tracer = scenario.network.tracer
    platform = scenario.platform
    txns = scenario.transactions(n_transactions)
    target = scenario.gateway_address if gateway == "default" else gateway

    def run() -> Generator:
        t_start = sim.now
        mark = len(tracer.connections)
        t0 = sim.now
        handle = yield from platform.deploy(
            "ebanking",
            {"transactions": txns},
            stops=scenario.stops(),
            gateway=target,
        )
        upload_time = sim.now - t0
        gateway = scenario.deployment.gateway(handle.gateway)
        yield gateway.ticket(handle.ticket).completed
        t1 = sim.now
        result = yield from platform.collect(handle)
        download_time = sim.now - t1
        conn_records = tracer.connections[mark:]
        mine = [r for r in conn_records if r.initiator == platform.device.address]
        return PDAgentRunMetrics(
            n_transactions=n_transactions,
            upload_time=upload_time,
            download_time=download_time,
            connection_time=sum(r.duration(now=sim.now) for r in mine),
            connections=len(mine),
            elapsed_total=sim.now - t_start,
            pi_wire_bytes=sum(r.bytes_sent for r in mine),
            result=result,
            gateway=handle.gateway,
        )

    proc = sim.process(run(), name=f"pdagent-batch-{n_transactions}")
    return sim.run(until=proc)
