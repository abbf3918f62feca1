"""Tests for the §3.6 public API primitives (repro.core.api)."""

import pytest

from repro.apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from repro.core import DeploymentBuilder, ResultExpiredError
from repro.core.api import (
    clone_agent,
    collect_result,
    dispatch_agent,
    dispose_agent,
    download_code,
    find_nearest_gateway,
    generate_unique_key,
    monitor_agent,
    read_xml,
    retract_agent,
    run_api_call,
    write_xml,
)
from repro.mas import Stop


@pytest.fixture
def dep():
    builder = DeploymentBuilder(master_seed=61)
    builder.add_central("central")
    builder.add_gateway("gw-0")
    for bank in ("bank-a", "bank-b"):
        builder.add_site(bank, services=[BankServiceAgent(bank_name=bank)])
    builder.add_device("pda", wireless="WLAN")
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    return builder.build()


@pytest.fixture
def platform(dep):
    return dep.platform("pda")


class TestCorePrimitives:
    def test_full_lifecycle_via_api(self, dep, platform):
        stored = run_api_call(platform, download_code(platform, "ebanking"))
        assert stored.code.service == "ebanking"

        handle = run_api_call(
            platform,
            dispatch_agent(
                platform,
                "ebanking",
                {"transactions": make_transactions(["bank-a", "bank-b"], 2)},
                stops=[Stop("bank-a"), Stop("bank-b")],
            ),
        )
        dep.sim.run(until=dep.gateway(handle.gateway).ticket(handle.ticket).completed)

        state = run_api_call(platform, monitor_agent(platform, handle))
        assert state == "completed"

        result = run_api_call(platform, collect_result(platform, handle))
        assert len(result.data["transactions"]) == 2

        disposed = run_api_call(platform, dispose_agent(platform, handle))
        assert disposed == "disposed"

    def test_disposed_ticket_no_longer_serves_its_result(self, dep, platform):
        run_api_call(platform, download_code(platform, "ebanking"))
        handle = run_api_call(
            platform,
            dispatch_agent(
                platform,
                "ebanking",
                {"transactions": make_transactions(["bank-a"], 1)},
                stops=[Stop("bank-a")],
            ),
        )
        gateway = dep.gateway(handle.gateway)
        dep.sim.run(until=gateway.ticket(handle.ticket).completed)
        run_api_call(platform, dispose_agent(platform, handle))
        # Disposal releases the workspace, and the result document with it.
        assert gateway.file_directory.held(handle.ticket) == 0
        assert gateway.ticket(handle.ticket).result_frame is None
        # GET /result/<ticket> answers 410, as for an expired result.
        with pytest.raises(ResultExpiredError):
            run_api_call(platform, collect_result(platform, handle))

    def test_collect_with_polling(self, dep, platform):
        run_api_call(platform, download_code(platform, "ebanking"))
        handle = run_api_call(
            platform,
            dispatch_agent(
                platform,
                "ebanking",
                {"transactions": make_transactions(["bank-a"], 1)},
                stops=[Stop("bank-a")],
            ),
        )
        result = run_api_call(platform, collect_result(platform, handle, poll=True))
        assert result.status == "completed"

    def test_clone_via_api(self, dep, platform):
        run_api_call(platform, download_code(platform, "ebanking"))
        handle = run_api_call(
            platform,
            dispatch_agent(
                platform,
                "ebanking",
                {"transactions": make_transactions(["bank-a"], 1)},
                stops=[Stop("bank-a")],
            ),
        )
        dep.sim.run(until=dep.gateway(handle.gateway).ticket(handle.ticket).completed)
        clone = run_api_call(platform, clone_agent(platform, handle))
        assert clone.ticket != handle.ticket
        dep.sim.run(until=dep.gateway(clone.gateway).ticket(clone.ticket).completed)

    def test_retract_via_api(self, dep, platform):
        # slow the banks down so retraction has something to interrupt
        for bank in ("bank-a", "bank-b"):
            dep.mas(bank)._services["banking"].processing_time = 20.0
        run_api_call(platform, download_code(platform, "ebanking"))
        handle = run_api_call(
            platform,
            dispatch_agent(
                platform,
                "ebanking",
                {"transactions": make_transactions(["bank-a", "bank-b"], 4)},
                stops=[Stop("bank-a"), Stop("bank-b")],
            ),
        )
        dep.sim.run(until=dep.sim.now + 2.0)
        state = run_api_call(platform, retract_agent(platform, handle))
        assert state == "retracted"

    def test_find_nearest_gateway(self, dep, platform):
        gateway = run_api_call(platform, find_nearest_gateway(platform))
        assert gateway == "gw-0"


class TestSystemManagementPrimitives:
    def test_generate_unique_key_matches_crypto(self):
        from repro.crypto import derive_dispatch_key

        assert generate_unique_key("mac-1", "pda", "n1") == derive_dispatch_key(
            "mac-1", "pda", "n1"
        )

    def test_read_write_xml_roundtrip(self):
        doc = read_xml('<pi version="1"><param>42</param></pi>')
        assert doc.get("version") == "1"
        assert doc.findtext("param") == "42"
        text = write_xml(doc)
        assert read_xml(text).equals(doc)

    def test_write_xml_pretty(self):
        doc = read_xml("<a><b/></a>")
        assert "\n" in write_xml(doc, indent="  ")
