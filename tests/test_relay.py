"""Tests for the gateway-to-gateway result relay (§3.3 mobility extension)."""

import pytest

from repro.apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from repro.core import DeploymentBuilder
from repro.core.errors import GatewayError, ResultNotReadyError
from repro.mas import Stop


@pytest.fixture
def dep():
    builder = DeploymentBuilder(master_seed=81)
    builder.add_central("central")
    builder.add_gateway("gw-0")
    builder.add_gateway("gw-1")
    builder.add_site("bank-a", services=[BankServiceAgent(bank_name="a")])
    builder.add_device("pda", wireless="WLAN")
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    return builder.build()


def dispatch(dep, n=2):
    platform = dep.platform("pda")

    def flow():
        yield from platform.subscribe("ebanking", gateway="gw-0")
        handle = yield from platform.deploy(
            "ebanking",
            {"transactions": make_transactions(["bank-a"], n)},
            stops=[Stop("bank-a")],
            gateway="gw-0",
        )
        return handle

    proc = dep.sim.process(flow())
    handle = dep.sim.run(until=proc)
    return platform, handle


class TestRelay:
    def test_collect_via_other_gateway(self, dep):
        platform, handle = dispatch(dep)
        dep.sim.run(until=dep.gateway("gw-0").ticket(handle.ticket).completed)
        proc = dep.sim.process(platform.collect(handle, via="gw-1"))
        result = dep.sim.run(until=proc)
        assert result.status == "completed"
        assert len(result.data["transactions"]) == 2
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway_relays"] == 1

    def test_relay_preserves_integrity(self, dep):
        """The relayed frame verifies against the origin's MD5 tag."""
        platform, handle = dispatch(dep)
        dep.sim.run(until=dep.gateway("gw-0").ticket(handle.ticket).completed)
        proc = dep.sim.process(platform.collect(handle, via="gw-1"))
        result = dep.sim.run(until=proc)
        # stored locally and re-readable — full pipeline succeeded
        assert platform.stored_result(handle.ticket)["transactions"]

    def test_relay_not_ready_propagates_204(self, dep):
        dep.mas("bank-a")._services["banking"].processing_time = 30.0
        platform, handle = dispatch(dep)
        proc = dep.sim.process(platform.collect(handle, via="gw-1"))
        with pytest.raises(ResultNotReadyError):
            dep.sim.run(until=proc)

    def test_relay_unknown_ticket_404(self, dep):
        platform, handle = dispatch(dep)
        fake = type(handle)(
            ticket="gw-0/t-999", agent_id="x", gateway="gw-0", service="ebanking"
        )
        proc = dep.sim.process(platform.collect(fake, via="gw-1"))
        with pytest.raises(GatewayError):
            dep.sim.run(until=proc)

    def test_relay_origin_down_502(self, dep):
        platform, handle = dispatch(dep)
        dep.sim.run(until=dep.gateway("gw-0").ticket(handle.ticket).completed)
        dep.gateway("gw-0").http.close()
        proc = dep.sim.process(platform.collect(handle, via="gw-1"))
        with pytest.raises(GatewayError):
            dep.sim.run(until=proc)

    def test_via_same_gateway_is_direct(self, dep):
        platform, handle = dispatch(dep)
        dep.sim.run(until=dep.gateway("gw-0").ticket(handle.ticket).completed)
        proc = dep.sim.process(platform.collect(handle, via="gw-0"))
        result = dep.sim.run(until=proc)
        assert result.status == "completed"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("gateway_relays", 0) == 0

    def test_via_autoselect(self, dep):
        platform, handle = dispatch(dep)
        dep.sim.run(until=dep.gateway("gw-0").ticket(handle.ticket).completed)
        proc = dep.sim.process(platform.collect(handle, via=""))
        result = dep.sim.run(until=proc)
        assert result.status == "completed"


class TestGatewayStatusEndpoint:
    def test_status_reports_tickets_and_workspace(self, dep):
        from repro.simnet.http import request
        from repro.xmlcodec import parse_bytes

        platform, handle = dispatch(dep)
        dep.sim.run(until=dep.gateway("gw-0").ticket(handle.ticket).completed)

        def probe():
            resp = yield from request(
                dep.network, "pda", "gw-0", "GET", "/status", port=80
            )
            return parse_bytes(resp.body)

        proc = dep.sim.process(probe())
        doc = dep.sim.run(until=proc)
        assert doc.get("address") == "gw-0"
        assert int(doc.require_child("tickets").require("total")) == 1
        buckets = {
            b.require("status"): int(b.require("count"))
            for b in doc.require_child("tickets").findall("bucket")
        }
        assert buckets == {"completed": 1}
        workspace = doc.require_child("workspace")
        assert int(workspace.require("used")) > 0
        assert "local:" in doc.findtext("mas")
