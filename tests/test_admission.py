"""Overload protection: admission control, exactly-once dedup, result TTL.

Covers the PR-3 robustness layer end to end:

* :class:`TokenBucket` / :class:`AdmissionController` mechanics — lazy
  refill on the simulated clock, bounded queues, per-class isolation,
  crash-time queue drops;
* exactly-once task admission — a lost-response retry storm dispatches
  exactly one agent (and demonstrably dispatches two with dedup off);
* load sheds are breaker-neutral and honour ``Retry-After``;
* the dedup index survives a gateway crash/restart via rebuild from the
  durable ticket store;
* result retention — a collected result expires after its TTL (410,
  distinct from an unknown ticket's 404) and releases its workspace;
* the structured HTTP error surface and the MAS transfer intake bound.
"""

import pytest

from repro.apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from repro.core import DeploymentBuilder, PDAgentConfig
from repro.core.admission import AdmissionController, DedupTable, TokenBucket
from repro.core.errors import (
    GatewayError,
    GatewayOverloadedError,
    ResultExpiredError,
)
from repro.mas import Stop
from repro.simnet.faults import FaultSchedule, LinkDown
from repro.simnet.http import HttpError, HttpResponse
from repro.simnet.kernel import Simulator

# ---------------------------------------------------------------------------
# deployment helpers (mirrors tests/test_faults.py)
# ---------------------------------------------------------------------------


def build_dep(seed=77, config=None, n_gateways=1):
    builder = DeploymentBuilder(master_seed=seed, config=config)
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


def subscribe(dep):
    drive(dep, dep.platform("pda").subscribe("ebanking", gateway="gw-0"))


def deploy(dep, task_id=None, n=1):
    txns = make_transactions(["bank-a", "bank-b"], n)
    return drive(
        dep,
        dep.platform("pda").deploy(
            "ebanking",
            {"transactions": txns},
            stops=[Stop("bank-a"), Stop("bank-b")],
            gateway="gw-0",
            task_id=task_id,
        ),
    )


def finish(dep, handle):
    """Wait for the ticket and collect the result document."""

    def run():
        ticket = dep.gateway("gw-0").ticket(handle.ticket)
        yield ticket.completed
        result = yield from dep.platform("pda").collect(handle)
        return result

    return drive(dep, run())


# ---------------------------------------------------------------------------
# token bucket + controller mechanics
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=2.0, burst=3)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
        assert bucket.tokens == 0.0

    def test_lazy_refill_on_simulated_clock(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=2.0, burst=3)
        for _ in range(3):
            bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.5)
        sim.run(until=0.25)
        assert not bucket.try_acquire()  # only half a token so far
        sim.run(until=10.0)
        assert bucket.tokens == pytest.approx(3.0)  # capped at burst
        assert bucket.try_acquire(3)

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TokenBucket(sim, rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(sim, rate=1.0, burst=0)


class TestAdmissionController:
    def make(self, enabled=True, workers=1, queue_limit=1, bucket=None):
        sim = Simulator()
        controller = AdmissionController(sim, node="gw-t", enabled=enabled)
        controller.add_class(
            "upload", workers=workers, queue_limit=queue_limit, bucket=bucket
        )
        controller.add_class("download", workers=2, queue_limit=4)
        return sim, controller

    def test_bounded_queue_sheds_with_scaled_hint(self):
        _, controller = self.make(workers=1, queue_limit=1)
        first = controller.try_admit("upload")  # takes the worker
        controller.try_admit("upload")  # fills the single queue slot
        with pytest.raises(GatewayOverloadedError) as exc:
            controller.try_admit("upload")
        assert exc.value.retry_after > 0
        assert controller.shed_total == 1
        assert controller.queue_depth("upload") == 1
        assert controller.inflight("upload") == 1
        # Releasing the worker promotes the queued request: room again.
        first.release()
        controller.try_admit("upload")

    def test_classes_are_isolated(self):
        _, controller = self.make(workers=1, queue_limit=0)
        controller.try_admit("upload")
        with pytest.raises(GatewayOverloadedError):
            controller.try_admit("upload")
        # A saturated upload class cannot starve downloads.
        admission = controller.try_admit("download")
        assert admission.request.triggered

    def test_rate_limit_sheds_before_queueing(self):
        sim = Simulator()
        controller = AdmissionController(sim, node="gw-rl")
        controller.add_class(
            "upload", workers=4, queue_limit=4,
            bucket=TokenBucket(sim, rate=1.0, burst=1),
        )
        controller.try_admit("upload")
        with pytest.raises(GatewayOverloadedError) as exc:
            controller.try_admit("upload")
        assert exc.value.retry_after >= 1.0  # at least the bucket deficit

    def test_disabled_controller_never_sheds(self):
        _, controller = self.make(enabled=False, workers=1, queue_limit=0)
        admissions = [controller.try_admit("upload") for _ in range(20)]
        assert controller.shed_total == 0
        assert controller.queue_depth("upload") == 19  # unbounded queue
        for admission in admissions:
            admission.release()

    def test_drop_queued_on_crash(self):
        _, controller = self.make(workers=1, queue_limit=3)
        controller.try_admit("upload")
        controller.try_admit("upload")
        controller.try_admit("upload")
        assert controller.drop_queued() == 2
        assert controller.queue_depth("upload") == 0

    def test_release_is_idempotent(self):
        _, controller = self.make(workers=1, queue_limit=1)
        admission = controller.try_admit("upload")
        admission.release()
        admission.release()
        assert controller.inflight("upload") == 0


class TestDedupTable:
    def test_bind_lookup_forget(self):
        table = DedupTable()
        table.bind("t-1", "tick-1")
        table.bind("", "tick-ignored")
        assert table.lookup("t-1") == "tick-1"
        assert table.lookup("") is None
        assert table.lookup("t-2") is None
        table.forget("t-1")
        assert len(table) == 0

    def test_rebuild_skips_failed_tickets(self):
        class T:
            def __init__(self, ticket_id, task_id, status):
                self.ticket_id, self.task_id, self.status = ticket_id, task_id, status

        table = DedupTable()
        table.bind("stale", "gone")
        rebuilt = table.rebuild(
            [
                T("tk-1", "t-1", "completed"),
                T("tk-2", "t-2", "failed"),
                T("tk-3", "t-3", "dispatched"),
                T("tk-4", "", "dispatched"),
            ]
        )
        assert rebuilt == 2
        assert table.lookup("t-1") == "tk-1"
        assert table.lookup("t-2") is None  # failed: free to retry afresh
        assert table.lookup("stale") is None

    def test_ttl_lazy_expiry_and_purge(self):
        table = DedupTable()
        table.bind("t-1", "tick-1", expires_at=10.0)
        table.bind("t-2", "tick-2")  # no expiry: gateway-lifetime binding
        assert table.lookup("t-1", now=9.99) == "tick-1"
        assert table.lookup("t-1", now=10.0) is None  # lazy expiry at lookup
        assert len(table) == 1  # the expired entry was dropped, not masked
        table.set_expiry("t-2", 20.0)
        table.set_expiry("t-missing", 20.0)  # miss is a no-op
        assert table.purge_expired(now=25.0) == 1
        assert table.lookup("t-2") is None

    def test_lookup_without_clock_never_expires(self):
        # Call sites that don't pass `now` (the pre-TTL interface) keep the
        # original behaviour: a binding with an armed expiry still answers.
        table = DedupTable()
        table.bind("t-1", "tick-1", expires_at=10.0)
        assert table.lookup("t-1") == "tick-1"

    def test_ttl_bounds_gateway_dedup_index(self, monkeypatch):
        """End to end: dedup_ttl_s lapses the binding after result expiry.

        A retry inside the TTL window dedups onto the original ticket; a
        retry after both the result retention TTL *and* the dedup TTL have
        elapsed dispatches a fresh agent (the index no longer pins it).
        """
        monkeypatch.setattr("repro.core.gateway.RESULT_TTL_S", 5.0)
        config = PDAgentConfig(dedup_ttl_s=30.0)
        dep = build_dep(config=config)
        subscribe(dep)
        handle = deploy(dep, task_id="task-ttl")
        finish(dep, handle)  # first download starts the retention clock
        dep.sim.run(until=dep.sim.now + 10.0)  # result expires, TTL armed
        gw = dep.gateway("gw-0")
        assert gw.dedup.lookup("task-ttl") == handle.ticket
        retry = deploy(dep, task_id="task-ttl")
        assert retry.ticket == handle.ticket  # inside the window: dedup hit
        dep.sim.run(until=dep.sim.now + 60.0)  # dedup TTL elapses
        assert gw.dedup.lookup("task-ttl", now=dep.sim.now) is None
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("gateway_dedup_expired", 0) >= 1
        fresh = deploy(dep, task_id="task-ttl")
        assert fresh.ticket != handle.ticket  # binding lapsed: fresh dispatch


# ---------------------------------------------------------------------------
# exactly-once under a lost-response retry storm
# ---------------------------------------------------------------------------


def storm_config(**overrides):
    """A slow dispatch so the outage window provably covers the response."""
    kwargs = dict(
        selection_policy="first",
        dispatch_cost_s=2.0,
        retry_max_attempts=6,
        retry_deadline_s=120.0,
    )
    kwargs.update(overrides)
    return PDAgentConfig(**kwargs)


def run_storm(seed=11, **overrides):
    """Deploy once while the wireless link dies across the response send.

    The request is delivered before the outage starts; the 2 s dispatch
    finishes inside the window, so the ticket response is lost and the
    device retransmits the identical frame when the link heals.
    """
    dep = build_dep(seed=seed, config=storm_config(**overrides))
    subscribe(dep)
    FaultSchedule().add(
        LinkDown("pda", "backbone", at=dep.sim.now + 0.5, duration=3.0)
    ).install(dep.network)
    handle = deploy(dep, task_id="pda-storm-task")
    result = finish(dep, handle)
    return dep, handle, result


class TestExactlyOnce:
    def test_retry_storm_dispatches_exactly_one_agent(self):
        dep, handle, result = run_storm()
        platform = dep.platform("pda")
        assert result.status == "completed"
        assert platform.netmanager.retries >= 1  # the storm actually happened
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.dedup_hit"] >= 1
        dispatched = [t for t in dep.gateway("gw-0").tickets() if t.agent_id]
        assert len(dispatched) == 1
        assert dispatched[0].task_id == "pda-storm-task"
        assert counters["gateway_dispatches"] == 1

    def test_storm_replay_is_deterministic(self):
        logs = []
        for _ in range(2):
            dep, handle, _ = run_storm(seed=11)
            logs.append(
                (
                    list(dep.platform("pda").netmanager.retry_log),
                    handle.ticket,
                    dep.sim.now,
                )
            )
        assert logs[0] == logs[1]

    def test_without_dedup_the_same_storm_double_dispatches(self):
        dep = build_dep(seed=11, config=storm_config(dedup_enabled=False))
        subscribe(dep)
        FaultSchedule().add(
            LinkDown("pda", "backbone", at=dep.sim.now + 0.5, duration=3.0)
        ).install(dep.network)
        # The retried frame now trips the nonce-replay 403 instead of
        # deduplicating, so the deployment fails at the application level...
        with pytest.raises(GatewayError):
            deploy(dep, task_id="pda-storm-task")
        # ...and the user's resubmission dispatches a *second* agent.
        handle = deploy(dep, task_id="pda-storm-task")
        result = finish(dep, handle)
        assert result.status == "completed"
        dispatched = [t for t in dep.gateway("gw-0").tickets() if t.agent_id]
        same_task = [t for t in dispatched if t.task_id == "pda-storm-task"]
        assert len(same_task) == 2  # the duplicate dedup would have prevented
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("gateway.dedup_hit", 0) == 0


# ---------------------------------------------------------------------------
# load sheds: Retry-After honoured, breaker-neutral
# ---------------------------------------------------------------------------


def shed_config(**overrides):
    """A 1-token bucket that refills slowly: the second upload is shed."""
    kwargs = dict(
        selection_policy="first",
        admission_rate=0.2,
        admission_burst=1,
        shed_retry_after_s=1.0,
        retry_max_attempts=6,
        retry_deadline_s=120.0,
    )
    kwargs.update(overrides)
    return PDAgentConfig(**kwargs)


class TestLoadShedding:
    def test_shed_wait_succeeds_without_tripping_breaker(self):
        dep = build_dep(seed=21, config=shed_config())
        subscribe(dep)
        platform = dep.platform("pda")
        h1 = deploy(dep, task_id="shed-1")
        h2 = deploy(dep, task_id="shed-2")  # shed once, waits, then admitted
        assert finish(dep, h1).status == "completed"
        assert finish(dep, h2).status == "completed"
        assert platform.netmanager.shed_waits >= 1
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.shed"] >= 1
        assert counters.get("device_shed_waits", 0) >= 1
        # A 503 is "busy", not "broken": the breaker must stay quiet.
        assert platform.breaker.trips == 0
        # The wait honoured the advertised Retry-After (bucket deficit = 5s,
        # scaled hints stay within the configured cap).
        shed_delays = [
            delay
            for purpose, _, delay in platform.netmanager.retry_log
            if purpose == "upload-pi"
        ]
        assert shed_delays and all(d <= 30.0 for d in shed_delays)

    def test_exhausted_sheds_surface_as_overload_error(self):
        dep = build_dep(seed=22, config=shed_config(retry_max_attempts=1))
        subscribe(dep)
        deploy(dep, task_id="only-token")
        with pytest.raises(GatewayOverloadedError) as exc:
            deploy(dep, task_id="shed-give-up")
        assert exc.value.retry_after > 0
        # Still a GatewayError, so deploy failover treats it uniformly.
        assert isinstance(exc.value, GatewayError)

    def test_shed_responses_carry_structured_headers(self):
        resp = HttpResponse(
            503, None, reason="busy", headers={"Retry-After": "2.5"}
        )
        assert resp.retry_after == pytest.approx(2.5)
        assert HttpResponse(200, None).retry_after is None
        assert HttpResponse(503, None, headers={"Retry-After": "soon"}).retry_after is None
        assert HttpResponse(503, None, headers={"Retry-After": "-1"}).retry_after is None
        err = HttpError(503, "busy", response=resp)
        assert str(err) == "HTTP 503: busy"
        assert err.response is resp
        assert err.headers["Retry-After"] == "2.5"
        assert HttpError(404, "nope").headers == {}


# ---------------------------------------------------------------------------
# crash/restart: dedup survives via the durable ticket store
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def test_dedup_index_rebuilt_from_tickets(self):
        dep = build_dep(seed=31, config=PDAgentConfig(selection_policy="first"))
        subscribe(dep)
        handle = deploy(dep, task_id="crash-task")
        assert finish(dep, handle).status == "completed"
        gw = dep.gateway("gw-0")
        assert len(gw.dedup) == 1
        gw.crash()
        assert len(gw.dedup) == 0  # volatile state gone
        rebuilt = gw.restart()
        assert rebuilt == 1
        # A post-restart retry of the same task lands on the original
        # ticket: no second agent, even across the crash.
        handle2 = deploy(dep, task_id="crash-task")
        assert handle2.ticket == handle.ticket
        dispatched = [t for t in gw.tickets() if t.agent_id]
        assert len(dispatched) == 1
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway.dedup_hit"] >= 1
        assert counters["gateway_crashes"] == 1
        assert counters["gateway_restarts"] == 1


# ---------------------------------------------------------------------------
# result retention + workspace accounting
# ---------------------------------------------------------------------------


class TestResultRetention:
    @pytest.fixture(autouse=True)
    def short_ttl(self, monkeypatch):
        monkeypatch.setattr("repro.core.gateway.RESULT_TTL_S", 5.0)

    def make_dep(self):
        config = PDAgentConfig(selection_policy="first")
        dep = build_dep(seed=41, config=config)
        subscribe(dep)
        return dep

    def test_expired_result_is_410_not_404(self):
        dep = self.make_dep()
        handle = deploy(dep, task_id="ttl-task")
        assert finish(dep, handle).status == "completed"  # first download ok
        dep.sim.run(until=dep.sim.now + 10.0)  # TTL elapses after it
        with pytest.raises(ResultExpiredError):
            finish(dep, handle)
        ticket = dep.gateway("gw-0").ticket(handle.ticket)
        assert ticket.status == "expired"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["gateway_results_expired"] == 1

    def test_unknown_ticket_is_distinct_error(self):
        dep = self.make_dep()

        def fetch():
            return (
                yield from dep.platform("pda").netmanager.download_result(
                    "gw-0", "gw-0/t-999"
                )
            )

        with pytest.raises(GatewayError) as exc:
            drive(dep, fetch())
        assert not isinstance(exc.value, ResultExpiredError)

    def test_workspace_fully_released_after_lifecycle(self):
        dep = self.make_dep()
        gw = dep.gateway("gw-0")
        handle = deploy(dep, task_id="space-task")
        assert finish(dep, handle).status == "completed"
        dep.sim.run(until=dep.sim.now + 10.0)
        # Dispatch workspace released at finalize, result frame at expiry:
        # nothing may leak across the full ticket lifecycle.
        assert gw.file_directory.used_bytes == 0
        assert gw.file_directory.tracked() == []

    def test_result_survives_until_first_download(self):
        dep = self.make_dep()
        handle = deploy(dep, task_id="late-reader")

        def wait_then_collect():
            ticket = dep.gateway("gw-0").ticket(handle.ticket)
            yield ticket.completed
            # Far longer than the TTL: retention only starts at the first
            # successful download, so a late first reader still gets it.
            yield dep.sim.timeout(60.0)
            result = yield from dep.platform("pda").collect(handle)
            return result

        assert drive(dep, wait_then_collect()).status == "completed"


# ---------------------------------------------------------------------------
# MAS transfer intake bound
# ---------------------------------------------------------------------------


class TestMasIntakeBound:
    def test_saturated_mas_refuses_then_recovers(self):
        dep = build_dep(seed=51, config=PDAgentConfig(selection_policy="first"))
        subscribe(dep)
        mas = dep.mas("bank-a")
        mas._inflight_transfers = mas.transfer_intake_limit  # saturate intake

        def relieve():
            yield dep.sim.timeout(6.0)
            mas._inflight_transfers = 0

        dep.sim.process(relieve(), name="relieve-intake")
        handle = deploy(dep, task_id="intake-task")
        result = finish(dep, handle)
        assert result.status == "completed"
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters["mas_transfers_refused"] >= 1
        assert counters.get("migration_failures", 0) >= 1  # refusal retried
