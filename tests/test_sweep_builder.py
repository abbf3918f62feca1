"""Tests for a codec × wireless sweep and deployment-builder validation."""

import pytest

from repro.core import DeploymentBuilder, PDAgentConfig
from repro.experiments.scenario import build_scenario, run_pdagent_batch


class TestSweep:
    """Both codecs on both wireless links: four fresh seed-4 scenarios."""

    @pytest.fixture(scope="class")
    def cells(self):
        return {
            (codec, wireless): run_pdagent_batch(
                build_scenario(
                    seed=4, config=PDAgentConfig(codec=codec), wireless=wireless
                ),
                3,
            )
            for codec in ("lzss", "null")
            for wireless in ("GPRS", "WLAN")
        }

    def test_expected_interaction(self, cells):
        """Compression matters on GPRS, barely on WLAN (the use case)."""
        gprs_gain = cells["null", "GPRS"].upload_time - cells["lzss", "GPRS"].upload_time
        wlan_gain = cells["null", "WLAN"].upload_time - cells["lzss", "WLAN"].upload_time
        assert gprs_gain > wlan_gain > -0.01

    def test_best_cell(self, cells):
        # fastest: compressed on the fast link
        best = min(cells, key=lambda cell: cells[cell].completion_time)
        assert best == ("lzss", "WLAN")


class TestDeploymentBuilderValidation:
    def test_gateway_before_central_rejected(self):
        builder = DeploymentBuilder()
        with pytest.raises(ValueError, match="add_central"):
            builder.add_gateway("gw-0")

    def test_device_before_central_rejected(self):
        builder = DeploymentBuilder()
        with pytest.raises(ValueError, match="add_central"):
            builder.add_device("pda")

    def test_double_central_rejected(self):
        builder = DeploymentBuilder()
        builder.add_central("c1")
        with pytest.raises(ValueError, match="already has"):
            builder.add_central("c2")

    def test_build_requires_gateway(self):
        builder = DeploymentBuilder()
        builder.add_central("central")
        with pytest.raises(ValueError, match="gateway"):
            builder.build()

    def test_build_requires_central(self):
        with pytest.raises(ValueError, match="central"):
            DeploymentBuilder().build()

    def test_unregistered_gateway_not_in_list(self):
        builder = DeploymentBuilder()
        builder.add_central("central")
        builder.add_gateway("gw-0")
        builder.add_gateway("gw-hidden", register=False)
        dep = builder.build()
        assert dep.central.gateway_addresses() == ["gw-0"]

    def test_accessors(self):
        builder = DeploymentBuilder()
        builder.add_central("central")
        builder.add_gateway("gw-0")
        builder.add_device("pda")
        dep = builder.build()
        assert dep.gateway("gw-0").address == "gw-0"
        assert dep.platform("pda").device.address == "pda"
        assert dep.mas("gw-0").address == "gw-0"
        assert dep.sim is dep.network.sim
