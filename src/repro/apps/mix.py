"""The six-application world: every site serves every app.

The simulation swarm (:mod:`repro.simtest`) and the diversity day
(:mod:`repro.experiments.diversity`) deploy the same applications the same
way (§3): each site hosts one service agent per application, every MAS
knows every agent class, and the catalogue publishes every service code a
device subscribes to.  :func:`install` builds that world on a
:class:`~repro.core.DeploymentBuilder`, and :func:`task` shapes one task of
any of the six applications as the ``(service, params, stops)`` a device
deploys.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..core import DeploymentBuilder
from ..mas import Stop
from .auction import (
    AuctionHouseServiceAgent,
    AuctionSnipeAgent,
    auction_service_code,
    make_lots,
)
from .ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from .foodsearch import (
    DirectoryServiceAgent,
    FoodSearchAgent,
    foodsearch_service_code,
    make_listings,
)
from .jobfarm import (
    GridForemanServiceAgent,
    GridWorkerServiceAgent,
    JobCourierAgent,
    JobFarmAgent,
    jobfarm_service_code,
)
from .mcommerce import (
    ShoppingAgent,
    VendorServiceAgent,
    make_inventory,
    mcommerce_service_code,
)
from .ridedispatch import (
    DriverBoardServiceAgent,
    RideDispatchAgent,
    make_drivers,
    ridedispatch_service_code,
)

__all__ = ["CUISINES", "ITEMS", "ZONES", "install", "task"]

#: What scenario generators draw a food search's cuisine, a shopping
#: trip's item and a ride's pickup zone from.
CUISINES = ("cantonese", "thai", "italian")
ITEMS = ("camera", "phone", "pda")
ZONES = ("downtown", "airport", "harbor", "uptown")

#: The task each stop of an app's itinerary runs at its site.
_STOP_TASKS = {
    "ebanking": "banking",
    "foodsearch": "search",
    "mcommerce": "shopping",
    "ridedispatch": "match",
    "auctionsnipe": "quote",
}


def install(builder: DeploymentBuilder, sites: Sequence[str]) -> None:
    """Add ``sites``, each serving all six apps; register every agent
    class and publish every service code.

    A site's food directory refers searches on to the next site (the last
    to the first), or to no partner when there is only one site.
    """
    for i, site in enumerate(sites):
        partner = sites[(i + 1) % len(sites)] if len(sites) > 1 else ""
        builder.add_site(
            site,
            services=[
                BankServiceAgent(bank_name=site),
                DirectoryServiceAgent(make_listings(i), partner=partner),
                VendorServiceAgent(make_inventory(i)),
                DriverBoardServiceAgent(make_drivers(i)),
                AuctionHouseServiceAgent(make_lots(i)),
                GridWorkerServiceAgent(),
                GridForemanServiceAgent(),
            ],
        )
    for cls in (
        EBankingAgent,
        FoodSearchAgent,
        ShoppingAgent,
        RideDispatchAgent,
        AuctionSnipeAgent,
        JobFarmAgent,
        JobCourierAgent,
    ):
        builder.register_agent_class(cls)
    for code in (
        ebanking_service_code,
        foodsearch_service_code,
        mcommerce_service_code,
        ridedispatch_service_code,
        auction_service_code,
        jobfarm_service_code,
    ):
        builder.publish(code())


def task(
    app: str, sites: Sequence[str], **fields: Any
) -> tuple[str, dict[str, Any], list[Stop]]:
    """``(service, params, stops)`` for one ``app`` task over ``sites``.

    ``fields`` holds the app's knobs under the names of
    :class:`~repro.simtest.spec.TaskSpec`'s fields; other fields are
    ignored, so all of a TaskSpec's may be passed.  A ride without a zone
    goes downtown, a snipe without a lot bids on ``lot-0``, a job without
    a name is ``job-0`` and has at least one shard, and a food search
    lists 5 places unless ``limit`` says otherwise.
    """
    sites = list(sites)
    if app == "jobfarm":
        # The itinerary carries only the rendezvous; the fan-out to the
        # remaining shard sites happens inside the MAS tier via couriers.
        job = {"name": fields["job"] or "job-0", "size": max(1, fields["job_size"])}
        return app, {"job": job, "sites": sites}, [Stop(sites[0], task="farm")]
    if app == "ebanking":
        params: dict[str, Any] = {
            "transactions": make_transactions(sites, fields["n_transactions"])
        }
    elif app == "foodsearch":
        params = {
            "cuisine": fields["cuisine"],
            "max_price": fields["max_price"],
            "limit": fields.get("limit", 5),
        }
    elif app == "mcommerce":
        params = {"item": fields["item"], "budget": fields["budget"]}
    elif app == "ridedispatch":
        params = {"zone": fields["zone"] or "downtown", "max_eta_s": 600.0}
    elif app == "auctionsnipe":
        params = {
            "lot": fields["lot"] or "lot-0",
            "budget": fields["budget"],
            "deadline": fields["deadline"],
        }
    else:
        raise ValueError(f"unknown app {app!r}")
    return app, params, [Stop(site, task=_STOP_TASKS[app]) for site in sites]
