"""Byte pins for every document written in the typed value encoding.

Agents on the wire and in checkpoints, Packed Information, the gateway's
result document, the device's dispatch records, MAS hop reports and the
client-agent-server baseline's request and result all carry typed values.
Each test builds its documents through a public entry point and pins a
sha256 over their bytes, so a change to how these documents are written
must leave every byte as it was.
"""

import hashlib
import random

from repro.apps.ebanking import (
    BankServiceAgent,
    EBankingAgent,
    ebanking_service_code,
    make_transactions,
)
from repro.core import DeploymentBuilder, PDAgentConfig, PIContent, pack
from repro.core.security import DeviceSecurity
from repro.crypto import KeyRing, derive_dispatch_key
from repro.experiments.scenario import build_scenario
from repro.mas import (
    AgletsWireFormat,
    Itinerary,
    MobileAgent,
    Stop,
    VoyagerWireFormat,
    serialize_agent,
)
from repro.rms import CallbackListener
from repro.telemetry.spans import SpanContext

#: Every value type, empty strings and containers, markup that must be
#: escaped in text and in attributes, and non-ASCII text.
VALUES = {
    "none": None,
    "yes": True,
    "no": False,
    "int": -17,
    "big": 2**70,
    "float": 0.1,
    "tiny": -1.25e-10,
    "str": "plain",
    "empty": "",
    "markup": "<a href=\"x\">&amp; 'q'</a> ]]>",
    "unicode": "naïve 漢字 \N{SNOWMAN}",
    "bytes": b"\x00\xff\x10",
    "nobytes": b"",
    "list": [1, "two", None, [], {}, (3, 4)],
    "nolist": [],
    "dict": {"k": {"nested": [True, b"\x01"]}},
    "nodict": {},
    "key <&>\"'": "a key that needs escaping",
    "": "the empty key",
}


def digest(docs):
    """sha256 over length-prefixed documents."""
    h = hashlib.sha256()
    for doc in docs:
        h.update(len(doc).to_bytes(4, "big"))
        h.update(doc)
    return h.hexdigest()


class _Courier(MobileAgent):
    code_size = 700


def make_agents():
    traced = _Courier(
        "gw-0/agent-7",
        "pda <1>",
        "gw-0",
        itinerary=Itinerary(
            origin="gw-0",
            stops=[Stop("bank-a", "tâche & <co>"), Stop("bank-b"), Stop("漢")],
            cursor=1,
        ),
        state={"params": VALUES, "results": [VALUES["list"], ""]},
    )
    traced.hops = 3
    traced.trace_ctx = SpanContext("trace-9", "span-4")
    bare = _Courier("", "", "h", state={})
    bare.code_size = 0
    banking = EBankingAgent(
        "gw-0/agent-8",
        "pda",
        "gw-0",
        itinerary=Itinerary(origin="gw-0", stops=[Stop("bank-a"), Stop("bank-b")]),
        state={
            "params": {"transactions": make_transactions(["bank-a", "bank-b"], 4)},
            "results": [],
        },
    )
    return [traced, bare, banking]


def test_agent_wire_forms_pinned():
    agents = make_agents()
    aglets, voyager = AgletsWireFormat(), VoyagerWireFormat()
    docs = []
    for agent in agents:
        docs += [
            serialize_agent(agent),
            aglets.encode(agent),
            aglets.snapshot(agent),
            voyager.encode(agent),
        ]
    assert digest(docs) == AGENTS_SHA256


def pi_contents():
    full = PIContent(
        code_id="mac-000001",
        device_id="pda",
        service="ebanking & co",
        agent_class="EBankingAgent",
        dispatch_key=derive_dispatch_key("mac-000001", "pda", "n1"),
        nonce="n1",
        params=VALUES,
        itinerary=Itinerary(origin="gw-0", stops=[Stop("bank-a", "t<1>")]),
        code_body="CODE<&>" * 40,
        task_id="pda-task-1",
        trace_id="trace-1",
        trace_parent="span-1",
        deadline=42.125,
    )
    bare = PIContent(
        code_id="mac-000002",
        device_id="pda",
        service="",
        agent_class="EBankingAgent",
        dispatch_key="k",
        nonce="",
    )
    mixed = PIContent(
        code_id="mac-000003",
        device_id="pdä",
        service="ebanking",
        agent_class="EBankingAgent",
        dispatch_key="k",
        nonce="n3",
        params={"transactions": make_transactions(["bank-a"], 2)},
        task_id="pda-task-3",
        trace_id="trace-3",
    )
    return [full, bare, mixed]


def test_packed_information_pinned():
    config = PDAgentConfig(encrypt=False, codec="null")
    rng = random.Random(5)
    security = DeviceSecurity(
        config, KeyRing(), lambda n: bytes(rng.randrange(256) for _ in range(n))
    )
    docs = [pack(content, config, security, "gw-0").data for content in pi_contents()]
    assert digest(docs) == PI_SHA256


def build_dep(config=None):
    builder = DeploymentBuilder(master_seed=21, config=config)
    builder.add_central("central")
    builder.add_gateway("gw-0")
    for bank in ("bank-a", "bank-b"):
        builder.add_site(bank, services=[BankServiceAgent(bank_name=bank)])
    builder.add_device("pda", wireless="WLAN")
    builder.register_agent_class(EBankingAgent)
    builder.publish(ebanking_service_code())
    return builder.build()


def drive(dep, gen):
    return dep.sim.run(until=dep.sim.process(gen))


def test_result_document_and_dispatch_records_pinned():
    dep = build_dep()
    platform = dep.platform("pda")
    records = []
    store = platform.device.storage.open("dispatch")

    def keep(store, record_id):
        records.append(store.get_record(record_id))

    store.add_listener(CallbackListener(on_added=keep, on_changed=keep))
    drive(dep, platform.subscribe("ebanking", gateway="gw-0"))
    handle = drive(
        dep,
        platform.deploy(
            "ebanking",
            {"transactions": make_transactions(["bank-a", "bank-b"], 3)},
            stops=[Stop("bank-a"), Stop("bank-b")],
            gateway="gw-0",
        ),
    )
    dep.sim.run(until=dep.gateway("gw-0").ticket(handle.ticket).completed)
    drive(dep, platform.collect(handle))
    assert len(records) == 2  # dispatched, then collected
    assert digest([platform.db.get_result(handle.ticket)]) == RESULT_SHA256
    assert digest(records) == DISPATCH_SHA256


def test_hop_report_body_pinned(monkeypatch):
    dep = build_dep()
    mas = dep.mas("bank-a")
    mas.hop_reports_enabled = True
    bodies = []

    def nothing():
        yield from ()

    def capture(home, body, trace):
        bodies.append(body)
        return nothing()

    monkeypatch.setattr(mas, "_post_hop_report", capture)
    agent = make_agents()[0]
    mas.report_hop_result(agent, VALUES)
    mas.report_hop_result(agent, [])
    mas.report_hop_result(agent, "a <b> & c")
    assert digest(bodies) == HOP_REPORT_SHA256


def test_client_agent_server_bodies_pinned(monkeypatch):
    from repro.baselines import client_agent_server as cas

    scenario = build_scenario(seed=33, with_agent_server=True)
    runner = scenario.client_agent_server_runner()
    bodies = []
    real_request = cas.request

    def recording(network, src, dst, method, path, **kwargs):
        resp = yield from real_request(network, src, dst, method, path, **kwargs)
        bodies.append(kwargs["body"] if method == "POST" else resp.body)
        return resp

    monkeypatch.setattr(cas, "request", recording)

    params = {"transactions": scenario.transactions(3), "note": "<&>"}
    result = scenario.sim.run(until=scenario.sim.process(runner.run("ebanking", params)))
    assert len(result.details[0]["data"]["transactions"]) == 3
    assert len(bodies) == 2  # the request, then the result
    assert digest(bodies) == CAS_SHA256


AGENTS_SHA256 = "dffe71e198471cb7c21fb05a10cec1849a6d091cfff7ac7ce5d25aeee56d20a6"
PI_SHA256 = "386fe26d109f2382bfa992f77e76f2b829fef2c5adbe48c0aac197ed75bd8fa0"
RESULT_SHA256 = "7fbd63833e70a2b2da65dc7e10f1a4acd54197947fd763de0d6761d8a88b6673"
DISPATCH_SHA256 = "6c417e74a551e74c91706e08f92727e6038b2ebe091b442195aaef105e9009f5"
HOP_REPORT_SHA256 = "197bb7d49285b120bfba9fb65db5081f98e24dea6f420a5c474f5756ac08a4a3"
CAS_SHA256 = "f61a561791c944160913596a0b4789de6e1182074d3546bfec0702883a2981b2"
