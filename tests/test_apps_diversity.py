"""End-to-end tests for the scenario-diversity app archetypes.

Each archetype gets a quiet swarm run (the full device → gateway → MAS →
collect chain, with its result payload audited), one faulted run (the
invariant suite must attribute whatever the fault did), and the new wire
surface gets its own checks: the PI ``<deadline>`` element round-trips
through the XML codec, and a gateway refuses — typed, breaker-neutral —
to dispatch an agent whose deadline already passed.
"""

from repro.apps.auction import AuctionHouseServiceAgent, auction_service_code, make_lots
from repro.apps.auction import AuctionSnipeAgent
from repro.core import DeploymentBuilder, PIContent, pi_from_xml, write_pi
from repro.core.errors import DeadlineExpiredError
from repro.crypto import derive_dispatch_key
from repro.mas import Itinerary, Stop
from repro.simtest import generate, run_spec
from repro.simtest.spec import DeviceSpec, FaultSpec, ScenarioSpec, TaskSpec
from repro.xmlcodec import parse

SITES = ("site-0", "site-1", "site-2")


def _spec(task: TaskSpec, seed: int = 1234, faults=()) -> ScenarioSpec:
    device = DeviceSpec(
        name="dev-0",
        profile="PDA",
        wireless="WLAN",
        ap=0,
        pinned_gateway=None,
        tasks=(task,),
    )
    return ScenarioSpec(
        seed=seed,
        n_gateways=1,
        n_sites=3,
        n_aps=2,
        devices=(device,),
        faults=tuple(faults),
    )


def _run_clean(spec: ScenarioSpec):
    report = run_spec(spec)
    assert report.ok, report.summary() + "".join(
        f"\n  {v.invariant}: {v.detail}" for v in report.violations
    )
    return report


class TestRideDispatch:
    TASK = TaskSpec(
        app="ridedispatch", sites=SITES, start=1.0, zone="downtown"
    )

    def test_quiet_run_matches_and_books(self):
        report = _run_clean(_spec(self.TASK))
        (outcome,) = report.outcomes
        assert outcome.ok and outcome.app == "ridedispatch"
        data = outcome.data
        assert data["matched"] is True
        assert data["candidates"] > 0
        assert data["best"]["zone"] == "downtown"
        assert data["assignment"]["driver"].startswith("drv-")
        # The booking happened at the shard that owns the winning driver.
        assert data["assignment"]["site"] == data["best"]["site"]

    def test_fault_run_stays_attributable(self):
        fault = FaultSpec(kind="link-down", target="ap:0", at=2.0, duration=8.0)
        _run_clean(_spec(self.TASK, faults=(fault,)))


class TestAuctionSnipe:
    TASK = TaskSpec(
        app="auctionsnipe",
        sites=SITES,
        start=1.0,
        lot="lot-0",
        budget=520.0,
        deadline=120.0,
    )

    def test_quiet_run_wins_in_time(self):
        report = _run_clean(_spec(self.TASK))
        (outcome,) = report.outcomes
        assert outcome.ok and outcome.deadline == 120.0
        data = outcome.data
        assert data["won"] is True
        assert data["bid"]["lot"] == "lot-0"
        assert data["bid"]["amount"] <= 520.0
        assert data["bid"]["at"] <= 120.0
        assert data["quotes"], "sniper completed without quoting any house"

    def test_fault_run_stays_attributable(self):
        fault = FaultSpec(
            kind="link-degrade", target="ap:0", at=1.5, duration=10.0,
            latency_factor=4.0, loss=0.4,
        )
        _run_clean(_spec(self.TASK, faults=(fault,)))


class TestJobFarm:
    TASK = TaskSpec(
        app="jobfarm",
        sites=SITES,
        start=1.0,
        job="render-3",
        job_size=3,
    )

    def test_quiet_run_merges_every_shard_exactly_once(self):
        report = _run_clean(_spec(self.TASK))
        (outcome,) = report.outcomes
        assert outcome.ok and outcome.sites == SITES
        data = outcome.data
        assert sorted(s["site"] for s in data["shards"]) == sorted(SITES)
        reported = [r["site"] for r in data["reports"]]
        assert sorted(reported) == sorted(set(reported)) == sorted(SITES)
        assert isinstance(data["total"], int)

    def test_fault_run_stays_attributable(self):
        fault = FaultSpec(kind="link-down", target="ap:1", at=3.0, duration=6.0)
        _run_clean(_spec(self.TASK, faults=(fault,)))


class TestDeadlinePIRoundTrip:
    def _content(self, **overrides) -> PIContent:
        fields = dict(
            code_id="mac-000001",
            device_id="pda",
            service="auctionsnipe",
            agent_class="AuctionSnipeAgent",
            dispatch_key=derive_dispatch_key("mac-000001", "pda", "n1"),
            nonce="n1",
            params={"lot": "lot-0", "budget": 300.0},
            itinerary=Itinerary(origin="gw-0", stops=[Stop("site-0")]),
            code_body="CODE" * 64,
        )
        fields.update(overrides)
        return PIContent(**fields)

    def test_deadline_survives_the_xml_codec(self):
        content = self._content(deadline=42.125)
        text = write_pi(content).decode()
        assert "<deadline>" in text
        assert pi_from_xml(parse(text)).deadline == 42.125

    def test_zero_deadline_stays_off_the_wire(self):
        text = write_pi(self._content()).decode()
        assert "<deadline>" not in text, (
            "legacy tasks must not grow a deadline element"
        )
        assert pi_from_xml(parse(text)).deadline == 0.0

    def test_fractional_deadline_exact(self):
        # repr round-trip: the gateway compares sim.now > deadline, so the
        # parsed float must be bit-equal to the device's.
        for deadline in (0.1, 133.33333333333334, 1e9 + 0.5):
            text = write_pi(self._content(deadline=deadline)).decode()
            assert pi_from_xml(parse(text)).deadline == deadline


class TestGatewayDeadlineRefusal:
    def _build(self):
        builder = DeploymentBuilder(master_seed=7)
        builder.add_central("central")
        builder.add_gateway("gw-0")
        builder.add_site(
            "site-0", services=[AuctionHouseServiceAgent(make_lots(0))]
        )
        builder.register_agent_class(AuctionSnipeAgent)
        builder.publish(auction_service_code())
        builder.add_device("pda", wireless="WLAN")
        return builder.build()

    def test_expired_deadline_refused_then_fresh_deploy_succeeds(self):
        dep = self._build()
        platform = dep.platform("pda")
        params = {"lot": "lot-0", "budget": 900.0}
        stops = [Stop("site-0", task="quote")]

        def flow():
            yield from platform.subscribe("auctionsnipe", gateway="gw-0")
            # The subscription handshake burned real simulated time, so
            # this deadline is already in the past when the PI arrives.
            refused = None
            try:
                yield from platform.deploy(
                    "auctionsnipe", params, stops=stops, gateway="gw-0",
                    deadline=1e-6,
                )
            except DeadlineExpiredError as exc:
                refused = exc
            after_refusal = len(list(dep.gateway("gw-0").tickets()))
            # Breaker-neutral: the same gateway must accept the next
            # in-time deployment without a cooldown.
            handle = yield from platform.deploy(
                "auctionsnipe", params, stops=stops, gateway="gw-0",
                deadline=dep.sim.now + 300.0,
            )
            yield dep.gateway(handle.gateway).ticket(handle.ticket).completed
            result = yield from platform.collect(handle)
            return refused, after_refusal, result

        proc = dep.sim.process(flow())
        refused, after_refusal, result = dep.sim.run(until=proc)
        assert isinstance(refused, DeadlineExpiredError)
        assert after_refusal == 0, (
            "a refused dispatch must not mint a ticket"
        )
        assert result.status == "completed"
        assert result.data["won"] is True

    def test_generous_deadline_not_refused(self):
        dep = self._build()
        platform = dep.platform("pda")

        def flow():
            yield from platform.subscribe("auctionsnipe", gateway="gw-0")
            handle = yield from platform.deploy(
                "auctionsnipe",
                {"lot": "lot-1", "budget": 900.0},
                stops=[Stop("site-0", task="quote")],
                gateway="gw-0",
                deadline=dep.sim.now + 500.0,
            )
            yield dep.gateway(handle.gateway).ticket(handle.ticket).completed
            return (yield from platform.collect(handle))

        proc = dep.sim.process(flow())
        result = dep.sim.run(until=proc)
        assert result.status == "completed"


class TestGeneratorCoverage:
    def test_diverse_archetypes_run_clean_from_generated_seeds(self):
        # At least one generated seed per archetype in the first 60, and
        # the first such seed for each must run clean end to end.
        first_seed: dict[str, int] = {}
        for seed in range(60):
            for dev in generate(seed).devices:
                for task in dev.tasks:
                    if task.app in ("ridedispatch", "auctionsnipe", "jobfarm"):
                        first_seed.setdefault(task.app, seed)
        assert set(first_seed) == {"ridedispatch", "auctionsnipe", "jobfarm"}
        for app, seed in sorted(first_seed.items()):
            report = run_spec(generate(seed))
            assert report.ok, f"{app} seed {seed}: {report.summary()}"
