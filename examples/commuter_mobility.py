#!/usr/bin/env python3
"""Mobility: dispatch in one region, collect in another (§3 "Mobility").

A commuter dispatches an e-banking batch through their *east-side* gateway
in the morning, rides across town (device offline — exactly the disconnected
operation PDAgent is built for), and collects the result after re-attaching
on the *west side*.  The platform:

1. re-probes after the handover and finds the west gateway nearest,
2. collects **via** that gateway, which relays the result document from the
   dispatching gateway over the wired network —

so the expensive wireless hop stays short on both ends of the journey.

Run:  python examples/commuter_mobility.py
"""

from repro.apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from repro.core import DeploymentBuilder, PDAgentConfig
from repro.device import link_profile
from repro.mas import Stop
from repro.simnet import LinkSpec


def main() -> None:
    config = PDAgentConfig(rtt_cache_ttl=1e9)
    builder = DeploymentBuilder(master_seed=314, config=config)
    builder.add_central("central")
    far = LinkSpec(latency=0.3, bandwidth=1_000_000)
    builder.add_gateway("gw-east", uplink=far)
    builder.add_gateway("gw-west", uplink=far)
    builder.add_site("bank-a", services=[BankServiceAgent(bank_name="Alpha")])
    builder.add_site("bank-b", services=[BankServiceAgent(bank_name="Beta")])
    net = builder.network
    fast = LinkSpec(latency=0.002, bandwidth=1_000_000)
    inter = LinkSpec(latency=0.25, bandwidth=1_000_000)
    net.add_node("ap-east", kind="router")
    net.add_node("ap-west", kind="router")
    net.add_duplex_link("ap-east", "gw-east", fast)
    net.add_duplex_link("ap-east", "backbone", inter)
    net.add_duplex_link("ap-west", "gw-west", fast)
    net.add_duplex_link("ap-west", "backbone", inter)
    builder.add_device("pda", wireless="WLAN", attach_to="ap-east")
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    dep = builder.build()

    platform, sim = dep.platform("pda"), dep.sim

    def commute():
        # morning, east side
        yield from platform.subscribe("ebanking")
        gw = yield from platform.selector.select()
        print(f"[{sim.now:6.2f}s] east side — nearest gateway: {gw}")
        handle = yield from platform.deploy(
            "ebanking",
            {"transactions": make_transactions(["bank-a", "bank-b"], 4)},
            stops=[Stop("bank-a"), Stop("bank-b")],
        )
        print(f"[{sim.now:6.2f}s] dispatched via {handle.gateway}; going offline")

        # the commute: offline while the agent works
        yield sim.timeout(45.0)
        platform.relocate("ap-west", link_profile("WLAN"))
        print(f"[{sim.now:6.2f}s] arrived west side (handover #{dep.devices['pda'].handovers})")

        gw = yield from platform.selector.select()
        print(f"[{sim.now:6.2f}s] re-probed — nearest gateway is now: {gw}")
        result = yield from platform.collect(handle, via=gw)
        return handle, gw, result

    proc = sim.process(commute(), name="commuter")
    handle, collect_gw, result = sim.run(until=proc)

    counters = dep.network.telemetry.metrics.snapshot()["counters"]
    relays = counters.get("gateway_relays", 0)
    print(f"[{sim.now:6.2f}s] collected {result.ticket} via {collect_gw} "
          f"(relayed from {handle.gateway}: {relays} gateway-to-gateway fetch)")
    for txn in result.data["transactions"]:
        print(f"    {txn['txn_id']:8s} @ {txn['bank']:7s} -> {txn['status']}")


if __name__ == "__main__":
    main()
