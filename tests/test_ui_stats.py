"""Tests for the device UI screens and the experiment statistics helpers."""

import pytest

from repro.apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from repro.core import DeploymentBuilder
from repro.core.errors import PDAgentError
from repro.core.ui import DeviceUI
from repro.experiments.stats import flatness, linear_fit
from repro.mas import Stop


@pytest.fixture
def dep():
    builder = DeploymentBuilder(master_seed=71)
    builder.add_central("central")
    builder.add_gateway("gw-0")
    builder.add_site("bank-a", services=[BankServiceAgent(bank_name="a")])
    builder.add_device("pda", wireless="WLAN")
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    return builder.build()


@pytest.fixture
def ui(dep):
    return DeviceUI(dep.platform("pda"))


class TestDeviceUI:
    def test_main_screen_lists_functions(self, ui):
        screen = ui.main_screen()
        assert "Service Subscription" in screen
        assert "Mobile Agent Management" in screen
        assert "Internal Database Management" in screen

    def test_subscribe_updates_status_and_db_screen(self, ui):
        code_id = ui.subscribe("ebanking")
        assert code_id.startswith("mac-")
        assert code_id in ui.database_screen()
        assert "subscribed ebanking" in ui.status_line

    def test_deploy_and_management_screen(self, dep, ui):
        ui.subscribe("ebanking")
        ticket = ui.deploy(
            "ebanking",
            {"transactions": make_transactions(["bank-a"], 2)},
            stops=[Stop("bank-a")],
        )
        screen = ui.agent_management_screen()
        assert ticket in screen
        assert "dispatched" in screen

    def test_collect_not_ready_then_ready(self, dep, ui):
        # slow bank => result not ready on first try
        dep.mas("bank-a")._services["banking"].processing_time = 5.0
        ui.subscribe("ebanking")
        ticket = ui.deploy(
            "ebanking",
            {"transactions": make_transactions(["bank-a"], 1)},
            stops=[Stop("bank-a")],
        )
        assert ui.collect(ticket) is None
        assert "not ready" in ui.status_line
        dep.sim.run(until=dep.gateway("gw-0").ticket(ticket).completed)
        result = ui.collect(ticket)
        assert result["status"] == "completed"
        assert ticket in ui.database_screen()

    def test_status_clone_dispose_flow(self, dep, ui):
        ui.subscribe("ebanking")
        ticket = ui.deploy(
            "ebanking",
            {"transactions": make_transactions(["bank-a"], 1)},
            stops=[Stop("bank-a")],
        )
        dep.sim.run(until=dep.gateway("gw-0").ticket(ticket).completed)
        assert ui.agent_status(ticket) == "completed"
        clone_ticket = ui.clone(ticket)
        assert clone_ticket != ticket
        assert clone_ticket in ui.agent_management_screen()
        assert ui.dispose(ticket) == "disposed"

    def test_unknown_ticket_raises(self, ui):
        with pytest.raises(PDAgentError):
            ui.agent_status("ghost")

    def test_empty_management_screen(self, ui):
        assert "(no agents dispatched)" in ui.agent_management_screen()


class TestStats:
    def test_linear_fit_perfect_line(self):
        fit = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_linear_fit_flat_series(self):
        fit = linear_fit([1, 2, 3], [5, 5, 5])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r2 == pytest.approx(1.0)  # degenerate: perfectly explained

    def test_linear_fit_noisy_r2_below_one(self):
        fit = linear_fit([1, 2, 3, 4], [1, 5, 2, 8])
        assert fit.r2 < 1.0

    def test_linear_fit_validation(self):
        with pytest.raises(ValueError):
            linear_fit([1], [2])
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1])

    def test_flatness(self):
        assert flatness([2.0, 2.0]) == pytest.approx(1.0)
        assert flatness([1.0, 3.0]) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            flatness([])
        with pytest.raises(ValueError):
            flatness([0.0, 1.0])

    def test_fig12_series_satisfy_stats(self):
        """The real Figure 12 series pass the statistical shape tests."""
        from repro.experiments.fig12 import run_fig12

        result = run_fig12(seed=0, ns=(1, 3, 5, 7))
        assert flatness(result.pdagent) < 1.25
        cs_fit = linear_fit(result.ns, result.client_server)
        assert cs_fit.slope > 0 and cs_fit.r2 > 0.97
        wb_fit = linear_fit(result.ns, result.web_based)
        assert wb_fit.slope > 0 and wb_fit.r2 > 0.97
