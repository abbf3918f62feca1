"""Tests for the §5 future-work applications: m-commerce and mobile workflow."""

from repro.apps.mcommerce import (
    ShoppingAgent,
    VendorServiceAgent,
    make_inventory,
    mcommerce_service_code,
)
from repro.apps.workflow import (
    ApproverServiceAgent,
    WorkflowAgent,
    threshold_policy,
    workflow_service_code,
)
from repro.core import DeploymentBuilder
from repro.mas import Stop


def run_flow(dep, service, params, stops):
    platform = dep.platform("pda")

    def flow():
        yield from platform.subscribe(service, gateway="gw-0")
        handle = yield from platform.deploy(
            service, params, stops=stops, gateway="gw-0"
        )
        yield dep.gateway("gw-0").ticket(handle.ticket).completed
        result = yield from platform.collect(handle)
        return result

    proc = dep.sim.process(flow())
    return dep.sim.run(until=proc)


def _shop_world(inventories, seed=5):
    builder = DeploymentBuilder(master_seed=seed)
    builder.add_central("central")
    builder.add_gateway("gw-0")
    vendors = {}
    for site, inv in inventories.items():
        vendor = VendorServiceAgent(inv, vendor_name=site)
        vendors[site] = vendor
        builder.add_site(site, services=[vendor])
    builder.add_device("pda", wireless="WLAN")
    builder.register_agent_class(ShoppingAgent)
    builder.publish(mcommerce_service_code())
    dep = builder.build()
    return dep, vendors


class TestMCommerce:
    def test_buys_cheapest_in_stock(self):
        dep, vendors = _shop_world(
            {
                "shop-a": {"camera": {"price": 300.0, "stock": 2}},
                "shop-b": {"camera": {"price": 250.0, "stock": 1}},
                "shop-c": {"camera": {"price": 280.0, "stock": 5}},
            }
        )
        result = run_flow(
            dep,
            "mcommerce",
            {"item": "camera", "budget": 1000.0},
            [Stop("shop-a"), Stop("shop-b"), Stop("shop-c")],
        )
        receipt = result.data["receipt"]
        assert result.data["purchased"]
        assert receipt["vendor"] == "shop-b"
        assert receipt["price"] == 250.0
        # stock actually decremented at the winning vendor
        assert vendors["shop-b"].inventory["camera"]["stock"] == 0

    def test_respects_budget(self):
        dep, vendors = _shop_world(
            {
                "shop-a": {"camera": {"price": 300.0, "stock": 2}},
                "shop-b": {"camera": {"price": 250.0, "stock": 1}},
            }
        )
        result = run_flow(
            dep,
            "mcommerce",
            {"item": "camera", "budget": 100.0},  # nothing admissible
            [Stop("shop-a"), Stop("shop-b")],
        )
        assert not result.data["purchased"]
        assert result.data["receipt"] is None
        assert len(result.data["quotes"]) == 2
        # no stock consumed anywhere
        assert vendors["shop-a"].inventory["camera"]["stock"] == 2
        assert vendors["shop-b"].inventory["camera"]["stock"] == 1

    def test_skips_out_of_stock_vendors(self):
        dep, vendors = _shop_world(
            {
                "shop-a": {"camera": {"price": 100.0, "stock": 0}},  # cheapest, dry
                "shop-b": {"camera": {"price": 250.0, "stock": 1}},
            }
        )
        result = run_flow(
            dep,
            "mcommerce",
            {"item": "camera", "budget": 1000.0},
            [Stop("shop-a"), Stop("shop-b")],
        )
        assert result.data["receipt"]["vendor"] == "shop-b"

    def test_purchase_idempotent(self):
        inv = {"camera": {"price": 10.0, "stock": 5}}
        dep, vendors = _shop_world({"shop-a": inv})
        vendor = vendors["shop-a"]
        # drive the service directly with a repeated order id
        mas = dep.mas("shop-a")

        class Caller:
            agent_id = "x"

        def flow():
            r1 = yield from mas.invoke_service(
                "vendor",
                Caller(),
                {"op": "purchase", "item": "camera", "order_id": "o-1"},
            )
            r2 = yield from mas.invoke_service(
                "vendor",
                Caller(),
                {"op": "purchase", "item": "camera", "order_id": "o-1"},
            )
            return r1, r2

        proc = dep.sim.process(flow())
        r1, r2 = dep.sim.run(until=proc)
        assert r1 == r2
        assert vendor.inventory["camera"]["stock"] == 4  # only one sold

    def test_make_inventory_deterministic(self):
        assert make_inventory(3) == make_inventory(3)
        assert make_inventory(3) != make_inventory(4)


def _workflow_world(seed=6, extra_sites=()):
    builder = DeploymentBuilder(master_seed=seed)
    builder.add_central("central")
    builder.add_gateway("gw-0")
    approvers = {}

    def add(site, approver, policy):
        agent = ApproverServiceAgent(approver, policy)
        approvers[site] = agent
        builder.add_site(site, services=[agent])

    add("dept", "dept-head", threshold_policy(500.0, escalate_to="division"))
    add("division", "division-director", threshold_policy(5000.0, reject_above=20000.0))
    for site, approver, policy in extra_sites:
        add(site, approver, policy)
    builder.add_device("pda", wireless="WLAN")
    builder.register_agent_class(WorkflowAgent)
    builder.publish(workflow_service_code())
    return builder.build(), approvers


class TestWorkflow:
    def test_small_claim_approved_at_first_step(self):
        dep, approvers = _workflow_world()
        result = run_flow(
            dep,
            "workflow",
            {"document": {"id": "exp-1", "amount": 120.0}},
            [Stop("dept")],
        )
        assert result.data["outcome"] == "approved"
        trail = result.data["trail"]
        assert len(trail) == 1
        assert trail[0]["approver"] == "dept-head"
        assert result.data["escalations"] == 0

    def test_large_claim_escalates_then_approves(self):
        dep, approvers = _workflow_world()
        result = run_flow(
            dep,
            "workflow",
            {"document": {"id": "exp-2", "amount": 2000.0}},
            [Stop("dept")],
        )
        assert result.data["outcome"] == "approved"
        verdicts = [d["verdict"] for d in result.data["trail"]]
        assert verdicts == ["escalate", "approve"]
        assert result.data["escalations"] == 1

    def test_huge_claim_rejected_at_escalation(self):
        dep, approvers = _workflow_world()
        result = run_flow(
            dep,
            "workflow",
            {"document": {"id": "exp-3", "amount": 50000.0}},
            [Stop("dept")],
        )
        assert result.data["outcome"] == "rejected"
        assert result.data["trail"][-1]["verdict"] == "reject"

    def test_rejection_terminates_chain_early(self):
        # dept rejects outright; the "audit" stop must never be visited
        dep, approvers = _workflow_world(
            extra_sites=[
                ("audit", "auditor", threshold_policy(1e9)),
            ]
        )
        approvers["dept"].policy = threshold_policy(0.0, reject_above=0.0)
        result = run_flow(
            dep,
            "workflow",
            {"document": {"id": "exp-4", "amount": 10.0}},
            [Stop("dept"), Stop("audit")],
        )
        assert result.data["outcome"] == "rejected"
        assert len(result.data["trail"]) == 1
        assert approvers["audit"].decisions == []

    def test_signatures_are_tamper_evident(self):
        from repro.crypto import md5_hex

        dep, approvers = _workflow_world()
        result = run_flow(
            dep,
            "workflow",
            {"document": {"id": "exp-5", "amount": 100.0}},
            [Stop("dept")],
        )
        decision = result.data["trail"][0]
        expected = md5_hex(
            f"dept-head|exp-5|100.0|{decision['verdict']}".encode()
        )
        assert decision["signature"] == expected

    def test_multi_step_chain_all_approve(self):
        dep, approvers = _workflow_world(
            extra_sites=[("audit", "auditor", threshold_policy(1e9))]
        )
        result = run_flow(
            dep,
            "workflow",
            {"document": {"id": "exp-6", "amount": 50.0}},
            [Stop("dept"), Stop("audit")],
        )
        assert result.data["outcome"] == "approved"
        assert [d["approver"] for d in result.data["trail"]] == [
            "dept-head",
            "auditor",
        ]

    def test_policy_validation(self):
        policy = threshold_policy(100.0, reject_above=1000.0)
        assert policy({"amount": 50})["verdict"] == "approve"
        assert policy({"amount": 500})["verdict"] == "reject"  # no escalation path
        assert policy({"amount": 5000})["verdict"] == "reject"
