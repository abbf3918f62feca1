"""Chaos tests: the fault-injection subsystem and end-to-end recovery.

Covers the four layers of the fault-tolerance stack:

* :mod:`repro.simnet.faults` — schedule mechanics and the tracer's fault
  ledger;
* device-side retry/backoff — byte-for-byte reproducible delays, circuit
  breaker trip/half-open;
* gateway hardening — ticket watchdog, ticket survival across a gateway
  crash/restart;
* MAS recovery — dead next-hop skipping, guardian checkpoint re-dispatch
  after a mid-execution site crash.
"""

import pytest

from repro.apps.ebanking import BankServiceAgent, EBankingAgent, ebanking_service_code, make_transactions
from repro.core import DeploymentBuilder, PDAgentConfig
from repro.core.errors import GatewayError
from repro.core.retry import CircuitBreaker, RetryPolicy
from repro.mas import Stop
from repro.simnet import (
    FaultSchedule,
    LinkDegrade,
    LinkDown,
    Network,
    NodeCrash,
)
from repro.simnet.link import LinkSpec
from repro.simnet.topology import NoRouteError

WIRED = LinkSpec(
    latency=0.02, bandwidth=1_000_000, jitter=0.0, loss=0.0,
    setup_time=0.05, rto=0.5, name="wired",
)


def small_network(seed=7):
    net = Network(master_seed=seed)
    for address in ("a", "b", "c", "d"):
        net.add_node(address)
    net.add_duplex_link("a", "b", WIRED)
    net.add_duplex_link("b", "c", WIRED)
    net.add_duplex_link("c", "d", WIRED)
    return net


def build_dep(seed=77, think_time=None, config=None):
    builder = DeploymentBuilder(master_seed=seed, config=config)
    builder.add_central("central")
    for i in range(2):
        builder.add_gateway(f"gw-{i}")
    for bank in ("bank-a", "bank-b"):
        kwargs = {"bank_name": bank}
        if think_time is not None:
            kwargs["think_time"] = think_time
        builder.add_site(bank, services=[BankServiceAgent(**kwargs)])
    builder.add_device("pda", wireless="WLAN")
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    return builder.build()


def drive(dep, gen):
    proc = dep.sim.process(gen)
    return dep.sim.run(until=proc)


def deploy(dep, platform, gateway="gw-0", n=2):
    txns = make_transactions(["bank-a", "bank-b"], n)
    return drive(
        dep,
        platform.deploy(
            "ebanking",
            {"transactions": txns},
            stops=[Stop("bank-a"), Stop("bank-b")],
            gateway=gateway,
        ),
    )


class TestFaultScheduleMechanics:
    def test_link_down_window_and_fault_ledger(self):
        net = small_network()
        FaultSchedule().add(LinkDown("a", "b", at=1.0, duration=2.0)).install(net)
        net.sim.run(until=1.5)
        assert not net.link("a", "b").up
        assert not net.link("b", "a").up
        with pytest.raises(NoRouteError):
            net.route("a", "c")
        net.sim.run(until=4.0)
        assert net.link("a", "b").up
        assert net.route("a", "c") == ["a", "b", "c"]
        kinds = [(f.kind, f.at) for f in net.tracer.faults]
        assert kinds == [("link-down", 1.0), ("link-up", 3.0)]
        counters = net.telemetry.metrics.snapshot()["counters"]
        assert counters["fault:link-down"] == 1

    def test_link_degrade_swaps_and_restores_spec(self):
        net = small_network()
        original = net.link("a", "b").spec
        schedule = FaultSchedule()
        schedule.add(
            LinkDegrade(
                "a", "b", at=1.0, duration=2.0,
                latency_factor=3.0, bandwidth_factor=0.5, loss=0.4,
            )
        )
        schedule.install(net)
        net.sim.run(until=1.5)
        degraded = net.link("a", "b").spec
        assert degraded.latency == pytest.approx(original.latency * 3.0)
        assert degraded.bandwidth == pytest.approx(original.bandwidth * 0.5)
        assert degraded.loss == pytest.approx(0.4)
        net.sim.run(until=4.0)
        assert net.link("a", "b").spec == original
        assert [f.kind for f in net.tracer.faults] == ["link-degrade", "link-restore"]

    def test_node_crash_and_restart_cycle(self):
        net = small_network()
        net.node("c").listen(9, lambda conn: None)
        FaultSchedule().add(NodeCrash("c", at=1.0, duration=2.0)).install(net)
        net.sim.run(until=1.5)
        assert net.node("c").crashed
        assert net.node("c").listener(9) is None
        net.sim.run(until=4.0)
        assert not net.node("c").crashed
        assert net.node("c").listener(9) is not None
        assert [f.kind for f in net.tracer.faults] == ["node-crash", "node-restart"]


class TestRetryReproducibility:
    def run_failed_deploy(self, seed):
        dep = build_dep(seed=seed)
        platform = dep.platform("pda")
        drive(dep, platform.subscribe("ebanking", gateway="gw-0"))
        dep.network.set_link_state("pda", "backbone", up=False)
        with pytest.raises(GatewayError):
            deploy(dep, platform)
        return platform.netmanager

    def test_retry_delays_byte_identical_across_same_seed_runs(self):
        first = self.run_failed_deploy(seed=11)
        second = self.run_failed_deploy(seed=11)
        assert first.retry_log  # the retry path actually ran
        assert first.retry_log == second.retry_log
        for purpose, attempt, delay in first.retry_log:
            assert purpose == "upload-pi"
            assert attempt >= 1
            assert delay > 0.0

    def test_backoff_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(base_delay=1.0, backoff_factor=2.0, jitter=0.1, max_delay=100.0)
        stream = Network(master_seed=0).streams.get("retry:test")
        d1 = policy.backoff_delay(1, stream)
        d2 = policy.backoff_delay(2, stream)
        d3 = policy.backoff_delay(3, stream)
        assert 0.9 <= d1 <= 1.1
        assert 1.8 <= d2 <= 2.2
        assert 3.6 <= d3 <= 4.4

    def test_circuit_breaker_trips_and_half_opens(self):
        net = Network(master_seed=0)
        breaker = CircuitBreaker(net.sim, threshold=2, cooldown=5.0)
        breaker.record_failure("gw-0")
        assert not breaker.is_open("gw-0")
        breaker.record_failure("gw-0")
        assert breaker.is_open("gw-0")
        assert breaker.open_addresses() == {"gw-0"}
        # cooldown elapses: half-open — one probe allowed, one failure re-trips
        net.sim.run(until=6.0)
        assert not breaker.is_open("gw-0")
        breaker.record_failure("gw-0")
        assert breaker.is_open("gw-0")
        # a success anywhere in the cycle closes it fully
        net.sim.run(until=12.0)
        breaker.record_success("gw-0")
        breaker.record_failure("gw-0")
        assert not breaker.is_open("gw-0")


class TestAgentRecovery:
    def test_crashed_next_hop_is_skipped_and_tour_completes(self):
        dep = build_dep()
        platform = dep.platform("pda")
        drive(dep, platform.subscribe("ebanking", gateway="gw-0"))
        FaultSchedule().add(NodeCrash("bank-b", at=0.0)).install(dep.network)
        handle = deploy(dep, platform)
        ticket = dep.gateway("gw-0").ticket(handle.ticket)
        dep.sim.run(until=ticket.completed)
        assert ticket.status == "completed"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["sites_skipped"] >= 1
        result = drive(dep, platform.collect(handle))
        assert {t["bank"] for t in result.data["transactions"]} == {"bank-a"}

    def test_guardian_redispatches_after_mid_execution_site_crash(self):
        # Slow tellers keep the agent executing at bank-b long enough for
        # the crash to catch it there, with its bank-a work checkpointed.
        dep = build_dep(think_time=3.0)
        platform = dep.platform("pda")
        drive(dep, platform.subscribe("ebanking", gateway="gw-0"))
        handle = deploy(dep, platform)
        bank_b = dep.mas("bank-b")
        while handle.agent_id not in bank_b._running:
            dep.sim.run(until=dep.sim.now + 0.25)
            assert dep.sim.now < 60.0, "agent never reached bank-b"
        dep.sim.run(until=dep.sim.now + 0.5)  # mid think-time
        bank_b.crash()
        ticket = dep.gateway("gw-0").ticket(handle.ticket)
        dep.sim.run(until=ticket.completed)
        assert ticket.status == "completed"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["agents_redispatched"] >= 1
        assert counters["agent_checkpoints"] >= 3  # home + both landings
        result = drive(dep, platform.collect(handle))
        # bank-a's work survived the crash via the checkpoint; bank-b's
        # in-progress work is lost with the site (skip policy).
        assert {t["bank"] for t in result.data["transactions"]} == {"bank-a"}

    def test_watchdog_fails_stuck_ticket_instead_of_hanging(self):
        config = PDAgentConfig(ticket_watchdog_s=30.0)
        dep = build_dep(think_time=3.0, config=config)
        for address in ("gw-0", "gw-1", "bank-a", "bank-b"):
            dep.mas(address).checkpointing = False  # no checkpoint => no rescue
        platform = dep.platform("pda")
        drive(dep, platform.subscribe("ebanking", gateway="gw-0"))
        handle = deploy(dep, platform)
        bank_b = dep.mas("bank-b")
        while handle.agent_id not in bank_b._running:
            dep.sim.run(until=dep.sim.now + 0.25)
            assert dep.sim.now < 60.0, "agent never reached bank-b"
        bank_b.crash()
        ticket = dep.gateway("gw-0").ticket(handle.ticket)
        # Without the watchdog this run would hang on a forever-"dispatched"
        # ticket; with it, the ticket is finalized as a retriable failure.
        disposition = dep.sim.run(until=ticket.completed)
        assert disposition == "failed"
        assert ticket.status == "failed"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway_watchdog_failures"] == 1
        result = drive(dep, platform.collect(handle))
        assert result.status == "failed"
        assert result.data["retriable"] is True


class TestGatewayRestart:
    def test_ticket_and_result_survive_gateway_crash_restart(self):
        dep = build_dep()
        platform = dep.platform("pda")
        drive(dep, platform.subscribe("ebanking", gateway="gw-0"))
        handle = deploy(dep, platform)
        ticket = dep.gateway("gw-0").ticket(handle.ticket)
        dep.sim.run(until=ticket.completed)
        dep.mas("gw-0").crash()
        with pytest.raises(GatewayError):
            drive(dep, platform.collect(handle))
        dep.mas("gw-0").restart()
        result = drive(dep, platform.collect(handle))
        assert result.status == "completed"
        assert len(result.data["transactions"]) == 2


class TestRetransmissionAccounting:
    LOSSY = LinkSpec(
        latency=0.1, bandwidth=1000, jitter=0.0, loss=0.25,
        setup_time=0.2, rto=2.0, name="lossy",
    )

    def sample_many(self, seed, n=200, size=100):
        net = Network(master_seed=seed)
        net.add_node("a")
        net.add_node("b")
        net.add_link("a", "b", self.LOSSY)
        samples = [net.sample_path_delay("a", "b", size) for _ in range(n)]
        return net.link("a", "b"), samples

    def test_lost_transfers_add_rto_and_are_counted(self):
        link, samples = self.sample_many(seed=5)
        base = self.LOSSY.latency + 100 / self.LOSSY.bandwidth
        total_retries = 0
        for delay, retries in samples:
            # jitter=0: the delay is exactly base + rto per retransmission
            assert delay == pytest.approx(base + retries * self.LOSSY.rto)
            total_retries += retries
        assert total_retries > 0  # 200 draws at 25% loss
        assert link.retransmissions == total_retries
        assert link.transfers == len(samples)

    def test_retransmission_sequence_is_seed_deterministic(self):
        _, first = self.sample_many(seed=9)
        _, second = self.sample_many(seed=9)
        assert first == second
        _, other = self.sample_many(seed=10)
        assert first != other


class TestFaultComparison:
    def test_pdagent_beats_client_server_under_faults(self):
        from repro.experiments.faults import reference_schedule, run_fault_comparison

        comparison = run_fault_comparison(seed=0, n_tasks=3)
        assert comparison.pdagent.completion_rate >= 0.95
        assert (
            comparison.client_server.completion_rate
            <= comparison.pdagent.completion_rate - 0.3
        )
        assert comparison.pdagent.faults_injected > 0
        assert len(reference_schedule(3)) >= 2
