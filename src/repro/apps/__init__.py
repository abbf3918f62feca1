"""MA-enabled example applications built on the PDAgent public API.

* :mod:`~repro.apps.ebanking` — the paper's evaluation workload (§4);
* :mod:`~repro.apps.foodsearch` — the paper's other named example, with
  context-adaptive itinerary extension;
* :mod:`~repro.apps.newswire` — a fan-out digest exercising cloning;
* :mod:`~repro.apps.mcommerce`, :mod:`~repro.apps.workflow` — the paper's
  future work (§5): comparison shopping and approval chains;
* :mod:`~repro.apps.ridedispatch` — latency-critical geo-sharded matching;
* :mod:`~repro.apps.auction` — deadline-critical sniping (PI deadlines);
* :mod:`~repro.apps.jobfarm` — throughput-critical fan-out/merge farming;
* :mod:`~repro.apps.mix` — the world of six of them that the simulation
  swarm and the diversity day deploy.
"""

from .auction import (
    AuctionHouseServiceAgent,
    AuctionSnipeAgent,
    auction_service_code,
    make_lots,
)
from .ebanking import (
    BANK_THINK_TIME,
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
    make_job,
)
from .mcommerce import (
    ShoppingAgent,
    VendorServiceAgent,
    make_inventory,
    mcommerce_service_code,
)
from .newswire import (
    FeedServiceAgent,
    NewswireAgent,
    make_stories,
    newswire_service_code,
)
from .ridedispatch import (
    DriverBoardServiceAgent,
    RideDispatchAgent,
    make_drivers,
    ridedispatch_service_code,
)
from .workflow import (
    ApproverServiceAgent,
    WorkflowAgent,
    threshold_policy,
    workflow_service_code,
)

__all__ = [
    "BankServiceAgent",
    "EBankingAgent",
    "ebanking_service_code",
    "make_transactions",
    "BANK_THINK_TIME",
    "DirectoryServiceAgent",
    "FoodSearchAgent",
    "foodsearch_service_code",
    "make_listings",
    "FeedServiceAgent",
    "NewswireAgent",
    "newswire_service_code",
    "make_stories",
    "VendorServiceAgent",
    "ShoppingAgent",
    "mcommerce_service_code",
    "make_inventory",
    "ApproverServiceAgent",
    "WorkflowAgent",
    "workflow_service_code",
    "threshold_policy",
    "DriverBoardServiceAgent",
    "RideDispatchAgent",
    "ridedispatch_service_code",
    "make_drivers",
    "AuctionHouseServiceAgent",
    "AuctionSnipeAgent",
    "auction_service_code",
    "make_lots",
    "GridWorkerServiceAgent",
    "GridForemanServiceAgent",
    "JobCourierAgent",
    "JobFarmAgent",
    "jobfarm_service_code",
    "make_job",
]
