"""Tests for the three MA-enabled applications."""

import pytest

from repro.apps.ebanking import BankServiceAgent, make_transactions
from repro.apps.foodsearch import (
    DirectoryServiceAgent,
    FoodSearchAgent,
    foodsearch_service_code,
    make_listings,
)
from repro.apps.newswire import (
    FeedServiceAgent,
    NewswireAgent,
    make_stories,
    newswire_service_code,
)
from repro.core import DeploymentBuilder
from repro.mas import Stop


class TestWorkloadGenerators:
    def test_make_transactions_round_robin(self):
        txns = make_transactions(["a", "b"], 5)
        assert [t["bank"] for t in txns] == ["a", "b", "a", "b", "a"]
        assert len({t["txn_id"] for t in txns}) == 5

    def test_make_transactions_validation(self):
        with pytest.raises(ValueError):
            make_transactions([], 3)
        with pytest.raises(ValueError):
            make_transactions(["a"], -1)

    def test_make_listings_deterministic(self):
        assert make_listings(2) == make_listings(2)
        assert make_listings(1) != make_listings(2)

    def test_make_stories_topics_from_pool(self):
        stories = make_stories(0, count=8)
        assert len(stories) == 8
        for story in stories:
            assert len(story["topics"]) == 2


class TestBankServiceAgent:
    def _world(self):
        from repro.mas import AgentClassRegistry, MobileAgentServer
        from repro.simnet import Network

        net = Network(master_seed=1)
        net.add_node("bank")
        server = MobileAgentServer(net, "bank", AgentClassRegistry())
        teller = BankServiceAgent(bank_name="TestBank")
        server.register_service(teller)
        return net, server, teller

    def _call(self, net, server, teller, request):
        class Dummy:
            agent_id = "caller"

        def flow():
            reply = yield from server.invoke_service("banking", Dummy(), request)
            return reply

        proc = net.sim.process(flow())
        return net.sim.run(until=proc)

    def test_transfer_debits_account(self):
        net, server, teller = self._world()
        reply = self._call(
            net, server, teller,
            {"op": "transfer", "account": "a1", "amount": 100, "dest": "d"},
        )
        assert reply["status"] == "ok"
        assert teller.accounts["a1"] == 900.0

    def test_insufficient_funds_declined(self):
        net, server, teller = self._world()
        reply = self._call(
            net, server, teller,
            {"op": "transfer", "account": "a1", "amount": 99999, "dest": "d"},
        )
        assert reply["status"] == "declined"
        assert teller.accounts["a1"] == 1000.0

    def test_bad_amount_rejected(self):
        net, server, teller = self._world()
        reply = self._call(
            net, server, teller,
            {"op": "transfer", "account": "a1", "amount": -5, "dest": "d"},
        )
        assert reply["status"] == "error"

    def test_missing_fields_rejected(self):
        net, server, teller = self._world()
        reply = self._call(net, server, teller, {"op": "transfer", "amount": 5})
        assert reply["status"] == "error"

    def test_balance_query(self):
        net, server, teller = self._world()
        reply = self._call(net, server, teller, {"op": "balance", "account": "z"})
        assert reply["balance"] == 1000.0

    def test_unknown_op(self):
        net, server, teller = self._world()
        reply = self._call(net, server, teller, {"op": "rob"})
        assert reply["status"] == "error"

    def test_journal_records_transfers(self):
        net, server, teller = self._world()
        self._call(
            net, server, teller,
            {"op": "transfer", "account": "a", "amount": 10, "dest": "d"},
        )
        assert len(teller.journal) == 1


def _food_world(seed=3):
    builder = DeploymentBuilder(master_seed=seed)
    builder.add_central("central")
    builder.add_gateway("gw-0")
    builder.add_site(
        "dir-a", services=[DirectoryServiceAgent(make_listings(0), partner="dir-c")]
    )
    builder.add_site("dir-b", services=[DirectoryServiceAgent(make_listings(1))])
    builder.add_site("dir-c", services=[DirectoryServiceAgent(make_listings(2))])
    builder.add_device("pda", wireless="WLAN")
    builder.register_agent_class(FoodSearchAgent)
    builder.publish(foodsearch_service_code())
    return builder.build()


class TestFoodSearch:
    def run_search(self, dep, params, stops):
        platform = dep.platform("pda")

        def flow():
            yield from platform.subscribe("foodsearch", gateway="gw-0")
            handle = yield from platform.deploy(
                "foodsearch", params, stops=stops, gateway="gw-0"
            )
            yield dep.gateway("gw-0").ticket(handle.ticket).completed
            result = yield from platform.collect(handle)
            return result

        proc = dep.sim.process(flow())
        return dep.sim.run(until=proc)

    def test_filters_by_cuisine_and_price(self):
        dep = _food_world()
        result = self.run_search(
            dep,
            {"cuisine": "thai", "max_price": 150, "limit": 10},
            [Stop("dir-b")],
        )
        for match in result.data["matches"]:
            assert match["cuisine"] == "thai"
            assert match["price"] <= 150

    def test_results_ranked_by_rating(self):
        dep = _food_world()
        result = self.run_search(
            dep,
            {"cuisine": "cantonese", "max_price": 999, "limit": 10},
            [Stop("dir-a"), Stop("dir-b")],
        )
        ratings = [m["rating"] for m in result.data["matches"]]
        assert ratings == sorted(ratings, reverse=True)

    def test_limit_respected(self):
        dep = _food_world()
        result = self.run_search(
            dep,
            {"cuisine": None, "max_price": 999, "limit": 3},
            [Stop("dir-a"), Stop("dir-b")],
        )
        assert len(result.data["matches"]) <= 3

    def test_partner_referral_extends_itinerary(self):
        dep = _food_world()
        result = self.run_search(
            dep,
            {"cuisine": None, "max_price": 999, "limit": 50},
            [Stop("dir-a")],  # user only lists dir-a
        )
        sites = {m["site"] for m in result.data["matches"]}
        assert "dir-c" in sites  # followed the referral

    def test_referral_bounded(self):
        dep = _food_world()
        result = self.run_search(
            dep,
            {"cuisine": None, "max_price": 999, "limit": 100},
            [Stop("dir-a"), Stop("dir-b"), Stop("dir-c")],
        )
        # dir-c already planned; no infinite loops, finite completion proves it
        assert result.status == "completed"


class TestNewswire:
    def _world(self, seed=4):
        builder = DeploymentBuilder(master_seed=seed)
        builder.add_central("central")
        builder.add_gateway("gw-0")
        for i, site in enumerate(("feed-a", "feed-b")):
            builder.add_site(site, services=[FeedServiceAgent(make_stories(i))])
        builder.add_device("pda", wireless="WLAN")
        builder.register_agent_class(NewswireAgent)
        builder.publish(newswire_service_code())
        return builder.build()

    def test_topic_filtering(self):
        dep = self._world()
        platform = dep.platform("pda")

        def flow():
            yield from platform.subscribe("newswire", gateway="gw-0")
            handle = yield from platform.deploy(
                "newswire",
                {"topic": "tech", "max_per_site": 10},
                stops=[Stop("feed-a"), Stop("feed-b")],
                gateway="gw-0",
            )
            yield dep.gateway("gw-0").ticket(handle.ticket).completed
            result = yield from platform.collect(handle)
            return result

        proc = dep.sim.process(flow())
        result = dep.sim.run(until=proc)
        for story in result.data["stories"]:
            assert "tech" in story["topics"]

    def test_max_per_site_cap(self):
        dep = self._world()
        platform = dep.platform("pda")

        def flow():
            yield from platform.subscribe("newswire", gateway="gw-0")
            handle = yield from platform.deploy(
                "newswire",
                {"topic": None, "max_per_site": 2},
                stops=[Stop("feed-a"), Stop("feed-b")],
                gateway="gw-0",
            )
            yield dep.gateway("gw-0").ticket(handle.ticket).completed
            result = yield from platform.collect(handle)
            return result

        proc = dep.sim.process(flow())
        result = dep.sim.run(until=proc)
        assert len(result.data["stories"]) <= 4

    def test_code_sizes_within_paper_band(self):
        from repro.apps import ebanking_service_code

        for code in (
            ebanking_service_code(),
            foodsearch_service_code(),
            newswire_service_code(),
        ):
            assert 1024 <= code.code_size <= 8192
