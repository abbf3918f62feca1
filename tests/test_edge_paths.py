"""Edge-path tests across substrates: transport failure bounds, envelope
key-size limits, degenerate agents, and malformed gateway inputs."""

import pytest

from repro.crypto import CryptoError, generate_keypair, seal
from repro.mas import Itinerary, MobileAgent, deserialize_agent, serialize_agent
from repro.simnet import (
    LinkSpec,
    Network,
    TransportError,
    connect,
    request,
)


class TestTransportFailureBounds:
    def test_persistent_loss_becomes_transport_error(self):
        """A link losing most transfers exhausts the retry budget."""
        net = Network(master_seed=123)
        net.add_node("a")
        net.add_node("b")
        # loss just below the validation cap; rto tiny so the test is fast
        spec = LinkSpec(latency=0.001, bandwidth=1e6, loss=0.95, rto=0.01)
        net.add_duplex_link("a", "b", spec)
        net.node("b").listen(1, lambda conn: None)

        def client():
            sock = yield from connect(net, "a", "b", 1, max_retries=1)
            # one send can get lucky; a sequence cannot
            for _ in range(50):
                yield from sock.send("x", 10)

        proc = net.sim.process(client())
        with pytest.raises(TransportError):
            net.sim.run(until=proc)

    def test_send_on_closed_connection_raises(self):
        from repro.simnet import ConnectionClosed

        net = Network(master_seed=1)
        net.add_node("a")
        net.add_node("b")
        net.add_duplex_link("a", "b", LinkSpec(latency=0.01, bandwidth=1e6))
        net.node("b").listen(1, lambda conn: None)

        def client():
            sock = yield from connect(net, "a", "b", 1)
            sock.close()
            yield from sock.send("x", 1)

        proc = net.sim.process(client())
        with pytest.raises(ConnectionClosed):
            net.sim.run(until=proc)


class TestEnvelopeKeyLimits:
    def test_modulus_too_small_for_session_key(self):
        tiny = generate_keypair(128, seed=3)  # 16-byte block < 28 needed
        with pytest.raises(CryptoError, match="too small"):
            seal(b"data", tiny.public, lambda n: bytes(n))

    def test_256_bit_key_just_fits(self):
        small = generate_keypair(256, seed=3)
        from repro.crypto import open_envelope

        frame = seal(b"data", small.public, lambda n: bytes([7]) * n)
        assert open_envelope(frame, small) == b"data"


class _Minimal(MobileAgent):
    code_size = 0  # degenerate: stateless, codeless agent


class TestDegenerateAgents:
    def test_zero_code_size_roundtrip(self):
        agent = _Minimal("h/1", "o", "h", itinerary=Itinerary(origin="h"))
        snap = deserialize_agent(serialize_agent(agent))
        assert snap.code_size == 0
        assert snap.state == {}

    def test_empty_state_roundtrip(self):
        agent = _Minimal("h/1", "o", "h", state={})
        snap = deserialize_agent(serialize_agent(agent))
        assert snap.state == {}


class TestMalformedGatewayInputs:
    @pytest.fixture
    def dep(self):
        from repro.apps.ebanking import ebanking_service_code, EBankingAgent
        from repro.core import DeploymentBuilder

        builder = DeploymentBuilder(master_seed=91)
        builder.add_central("central")
        builder.add_gateway("gw-0")
        builder.add_device("pda", wireless="WLAN")
        builder.register_agent_class(EBankingAgent)
        builder.publish(ebanking_service_code())
        return builder.build()

    def _post(self, dep, path, body, body_size=None):
        def flow():
            resp = yield from request(
                dep.network,
                "pda",
                "gw-0",
                "POST",
                path,
                body=body,
                body_size=body_size if body_size is not None else len(body or b""),
                port=80,
                raise_for_status=False,
            )
            return resp

        proc = dep.sim.process(flow())
        return dep.sim.run(until=proc)

    def test_garbage_pi_rejected_400(self, dep):
        resp = self._post(dep, "/pi", b"this is not a packed information")
        assert resp.status == 400

    def test_non_bytes_pi_rejected_400(self, dep):
        resp = self._post(dep, "/pi", {"not": "bytes"}, body_size=10)
        assert resp.status == 400

    @pytest.mark.parametrize(
        "corrupt",
        [lambda frame: frame[: len(frame) // 2], lambda frame: b"XXXX" + frame[4:]],
        ids=["truncated-body", "bad-magic"],
    )
    def test_corrupt_compressed_pi_rejected_400(self, dep, corrupt):
        """An authenticated PI whose compressed frame is damaged is the
        client's error (400), not a gateway fault (500)."""
        from repro.compressor import compress
        from repro.core.security import PLAIN_MAGIC
        from repro.crypto import md5

        frame = corrupt(compress(b"<pi>" + b"<t>100</t>" * 50 + b"</pi>", "lzss"))
        resp = self._post(dep, "/pi", PLAIN_MAGIC + md5(frame) + frame)
        assert resp.status == 400
        assert resp.reason.startswith("malformed PI")
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("http_500", 0) == 0

    def _subscribed_pi(self, dep) -> bytes:
        """A subscribed device's PI document, as the device writes it."""
        from repro.apps.ebanking import make_transactions
        from repro.compressor import decompress
        from repro.core import PDAgentConfig, pack
        from repro.core.security import PLAIN_MAGIC, DeviceSecurity
        from repro.crypto import KeyRing

        platform = dep.platform("pda")
        dep.sim.run(until=dep.sim.process(platform.subscribe("ebanking", gateway="gw-0")))
        content = platform.dispatcher.build_content(
            platform.db.find_code_by_service("ebanking"),
            {"transactions": make_transactions(["bank-a"], 2)},
        )
        config = PDAgentConfig(encrypt=False, codec="null")
        packed = pack(content, config, DeviceSecurity(config, KeyRing(), bytes), "gw-0")
        return decompress(packed.data[len(PLAIN_MAGIC) + 16 :])

    def _upload_pi(self, dep, xml: bytes):
        from repro.compressor import compress
        from repro.core.security import PLAIN_MAGIC
        from repro.crypto import md5

        frame = compress(xml, "lzss")
        return self._post(dep, "/pi", PLAIN_MAGIC + md5(frame) + frame)

    def test_surrogate_character_reference_rejected_400(self, dep):
        """A lone surrogate parsed into the PI cannot be encoded again
        when the agent is serialised; it must be refused as malformed."""
        xml = self._subscribed_pi(dep)
        assert b"acct-main" in xml
        resp = self._upload_pi(dep, xml.replace(b"acct-main", b"acct-&#xD800;"))
        assert resp.status == 400
        assert resp.reason.startswith("malformed PI")
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("http_500", 0) == 0

    @pytest.mark.parametrize("depth", [600, 5000])
    def test_over_deep_pi_rejected_400(self, dep, depth):
        params = b'<params type="dict">'
        xml = self._subscribed_pi(dep)
        assert params in xml
        chain = b'<item type="list">' * depth + b"</item>" * depth
        deep = params + b'<entry type="list" key="deep">' + chain + b"</entry>"
        resp = self._upload_pi(dep, xml.replace(params, deep))
        assert resp.status == 400
        assert resp.reason.startswith("malformed PI")
        counters = dep.network.telemetry.metrics.snapshot()["counters"]
        assert counters.get("http_500", 0) == 0

    def test_malformed_subscribe_rejected_400(self, dep):
        resp = self._post(dep, "/subscribe", b"<broken")
        assert resp.status == 400

    def test_malformed_agent_op_rejected_400(self, dep):
        resp = self._post(dep, "/agent", b"<agentop/>")  # missing op/ticket
        assert resp.status == 400

    def test_bad_relay_path_rejected_400(self, dep):
        def flow():
            resp = yield from request(
                dep.network, "pda", "gw-0", "GET", "/relay/only-one-part",
                port=80, raise_for_status=False,
            )
            return resp

        proc = dep.sim.process(flow())
        assert dep.sim.run(until=proc).status == 400
