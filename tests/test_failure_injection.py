"""Failure-injection tests: gateway crashes, link outages, resource
exhaustion, and the failover/retry machinery that handles them.

The paper motivates the middle-tier precisely with reliability ("it also
helps to provide a reliable network connection"), so the reproduction's
failure behaviour is part of the contract.
"""

import pytest

from repro.apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from repro.core import DeploymentBuilder
from repro.core.errors import GatewayError, NoGatewayAvailableError
from repro.mas import Stop


def build_dep(n_gateways=2, seed=77):
    builder = DeploymentBuilder(master_seed=seed)
    builder.add_central("central")
    for i in range(n_gateways):
        builder.add_gateway(f"gw-{i}")
    for bank in ("bank-a", "bank-b"):
        builder.add_site(bank, services=[BankServiceAgent(bank_name=bank)])
    builder.add_device("pda", wireless="WLAN")
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    return builder.build()


def drive(dep, gen):
    proc = dep.sim.process(gen)
    return dep.sim.run(until=proc)


def prepare(dep):
    platform = dep.platform("pda")
    drive(dep, platform.subscribe("ebanking", gateway="gw-0"))
    return platform


def deploy_auto(dep, platform, n=2):
    txns = make_transactions(["bank-a", "bank-b"], n)
    return drive(
        dep,
        platform.deploy(
            "ebanking",
            {"transactions": txns},
            stops=[Stop("bank-a"), Stop("bank-b")],
        ),
    )


class TestGatewayCrash:
    def test_failover_to_second_gateway(self):
        dep = build_dep(n_gateways=2)
        platform = prepare(dep)
        # gw-0 crashes: its web server stops accepting connections.
        dep.gateway("gw-0").http.close()
        handle = deploy_auto(dep, platform)
        assert handle.gateway == "gw-1"
        dep.sim.run(until=dep.gateway("gw-1").ticket(handle.ticket).completed)
        result = drive(dep, platform.collect(handle))
        assert result.status == "completed"

    def test_all_gateways_down_raises(self):
        dep = build_dep(n_gateways=2)
        platform = prepare(dep)
        dep.gateway("gw-0").http.close()
        dep.gateway("gw-1").http.close()
        with pytest.raises(NoGatewayAvailableError):
            deploy_auto(dep, platform)

    def test_explicit_gateway_does_not_fail_over(self):
        dep = build_dep(n_gateways=2)
        platform = prepare(dep)
        dep.gateway("gw-0").http.close()
        txns = make_transactions(["bank-a"], 1)
        with pytest.raises(GatewayError):
            drive(
                dep,
                platform.deploy(
                    "ebanking",
                    {"transactions": txns},
                    stops=[Stop("bank-a")],
                    gateway="gw-0",
                ),
            )

    def test_crash_after_dispatch_result_lost_but_device_consistent(self):
        dep = build_dep(n_gateways=2)
        platform = prepare(dep)
        handle = deploy_auto(dep, platform)
        dep.sim.run(until=dep.gateway(handle.gateway).ticket(handle.ticket).completed)
        dep.gateway(handle.gateway).http.close()
        with pytest.raises(GatewayError):
            drive(dep, platform.collect(handle))
        # the dispatch ledger still shows it as outstanding
        assert platform.db.get_dispatch(handle.ticket).status == "dispatched"


class TestLinkOutage:
    def test_bank_unreachable_agent_skips_site_and_completes(self):
        """An unreachable tour site is struck from the itinerary (the
        default "skip" policy) and the remaining stops still complete —
        the ticket no longer hangs in "dispatched" forever."""
        dep = build_dep(n_gateways=1)
        platform = prepare(dep)
        # cut bank-b off entirely before dispatch
        dep.network.set_link_state("backbone", "bank-b", up=False)
        dep.network.set_link_state("bank-b", "backbone", up=False)
        txns = make_transactions(["bank-a", "bank-b"], 2)
        handle = drive(
            dep,
            platform.deploy(
                "ebanking",
                {"transactions": txns},
                stops=[Stop("bank-a"), Stop("bank-b")],
                gateway="gw-0",
            ),
        )
        ticket = dep.gateway("gw-0").ticket(handle.ticket)
        dep.sim.run(until=ticket.completed)
        assert ticket.status == "completed"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("sites_skipped", 0) >= 1
        result = drive(dep, platform.collect(handle))
        # only bank-a's transactions executed; bank-b was skipped
        banks = {t["bank"] for t in result.data["transactions"]}
        assert banks == {"bank-a"}

    def test_outage_heals_and_later_deploy_succeeds(self):
        dep = build_dep(n_gateways=1)
        platform = prepare(dep)
        dep.network.set_link_state("backbone", "bank-b", up=False)
        dep.network.set_link_state("bank-b", "backbone", up=False)
        dep.network.set_link_state("backbone", "bank-b", up=True)
        dep.network.set_link_state("bank-b", "backbone", up=True)
        handle = deploy_auto(dep, platform)
        dep.sim.run(until=dep.gateway("gw-0").ticket(handle.ticket).completed)
        result = drive(dep, platform.collect(handle))
        assert result.status == "completed"

    def test_device_link_down_upload_fails(self):
        """Transport failures surface as GatewayError (after the retry
        budget), the uniform device-side failure type — not as a raw
        NoRouteError leaking from the topology layer."""
        dep = build_dep(n_gateways=1)
        platform = prepare(dep)
        dep.network.set_link_state("pda", "backbone", up=False)
        txns = make_transactions(["bank-a"], 1)
        with pytest.raises(GatewayError):
            drive(
                dep,
                platform.deploy(
                    "ebanking",
                    {"transactions": txns},
                    stops=[Stop("bank-a")],
                    gateway="gw-0",
                ),
            )
        # every attempt of the retry budget was spent
        assert platform.netmanager.retries == platform.retry_policy.max_attempts - 1


class TestResourceExhaustion:
    def test_device_storage_full_on_subscription(self):
        from repro.rms import RecordStoreFullError

        dep = build_dep()
        platform = dep.platform("pda")
        # fill the device store almost completely
        filler = platform.db._results
        for size in (4096, 64):  # coarse fill, then pack the remainder tight
            while True:
                try:
                    filler.add_record(b"x" * size)
                except RecordStoreFullError:
                    break
        with pytest.raises(RecordStoreFullError):
            drive(dep, platform.subscribe("ebanking", gateway="gw-0"))

    def test_gateway_file_directory_quota(self):
        from repro.core.gateway import FileDirectory

        fd = FileDirectory(quota_bytes=100)
        fd.allocate("t-1", 80)
        with pytest.raises(GatewayError):
            fd.allocate("t-2", 40)
        fd.release("t-1")
        fd.allocate("t-2", 40)
        assert fd.used_bytes == 40

    def test_release_unknown_ticket_is_noop(self):
        from repro.core.gateway import FileDirectory

        fd = FileDirectory()
        fd.release("never-allocated")
        assert fd.used_bytes == 0


class TestWirelessLoss:
    def test_lossy_link_still_completes(self):
        """Heavy loss slows PDAgent down but never corrupts the flow."""
        from repro.simnet.link import LinkSpec

        builder = DeploymentBuilder(master_seed=5)
        builder.add_central("central")
        builder.add_gateway("gw-0")
        builder.add_site("bank-a", services=[BankServiceAgent(bank_name="a")])
        lossy = LinkSpec(
            latency=0.1, bandwidth=20_000, jitter=0.05, loss=0.15,
            setup_time=0.3, rto=0.5, name="lossy",
        )
        builder.add_device("pda", wireless=lossy)
        builder.register_agent_class(EBankingAgent)
        builder.publish(ebanking_service_code())
        dep = builder.build()
        platform = dep.platform("pda")
        drive(dep, platform.subscribe("ebanking", gateway="gw-0"))
        handle = drive(
            dep,
            platform.deploy(
                "ebanking",
                {"transactions": make_transactions(["bank-a"], 2)},
                stops=[Stop("bank-a")],
                gateway="gw-0",
            ),
        )
        dep.sim.run(until=dep.gateway("gw-0").ticket(handle.ticket).completed)
        result = drive(dep, platform.collect(handle))
        assert len(result.data["transactions"]) == 2
