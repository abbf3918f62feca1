"""Tests for Packed Information, the security model, and the config."""

import random
from dataclasses import fields

import pytest

from repro.compressor import codec_names
from repro.crypto import IntegrityError, KeyRing, KeyVault, derive_dispatch_key
from repro.core import PDAgentConfig, PIContent, pack, pi_from_xml, unpack, write_pi
from repro.core.errors import DeploymentError
from repro.core.security import DeviceSecurity, GatewaySecurity
from repro.mas import Itinerary, Stop
from repro.xmlcodec import parse_bytes

VAULT = KeyVault(bits=512, seed=0)
GATEWAY = "gw-0"


def make_security(config):
    ring = KeyRing()
    ring.add(GATEWAY, VAULT.public_key(GATEWAY))
    rng = random.Random(4)
    device = DeviceSecurity(config, ring, lambda n: bytes(rng.randrange(256) for _ in range(n)))
    gateway = GatewaySecurity(config, VAULT.keypair(GATEWAY))
    return device, gateway


def make_content(**overrides):
    fields = dict(
        code_id="mac-000001",
        device_id="pda",
        service="ebanking",
        agent_class="EBankingAgent",
        dispatch_key=derive_dispatch_key("mac-000001", "pda", "n1"),
        nonce="n1",
        params={"transactions": [{"bank": "a", "amount": 10.0}]},
        itinerary=Itinerary(origin=GATEWAY, stops=[Stop("bank-a")]),
        code_body="CODE" * 256,
    )
    fields.update(overrides)
    return PIContent(**fields)


class TestConfig:
    def test_defaults_valid(self):
        PDAgentConfig()

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            PDAgentConfig(selection_policy="psychic")

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_watchdog_cannot_be_disabled(self, value):
        with pytest.raises(ValueError, match="ticket_watchdog_s"):
            PDAgentConfig(ticket_watchdog_s=value)

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="codec"):
            PDAgentConfig(codec="zip")

    def test_every_registered_codec_accepted(self):
        for name in codec_names():
            assert PDAgentConfig(codec=name).codec == name

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(PDAgentConfig) if f.type == "float"]
    )
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            PDAgentConfig(**{name: float("nan")})

    def test_with_creates_modified_copy(self):
        base = PDAgentConfig()
        variant = base.with_(codec="null")
        assert variant.codec == "null"
        assert base.codec == "lzss"

    def test_pack_cost_includes_encryption(self):
        enc = PDAgentConfig(encrypt=True).pack_cost(4096)
        plain = PDAgentConfig(encrypt=False).pack_cost(4096)
        assert enc > plain

    def test_costs_scale_with_size(self):
        cfg = PDAgentConfig()
        assert cfg.pack_cost(8192) > cfg.pack_cost(1024)
        assert cfg.unpack_cost(8192) > cfg.unpack_cost(1024)


class TestPIXml:
    def test_xml_roundtrip(self):
        content = make_content()
        recovered = pi_from_xml(parse_bytes(write_pi(content)))
        assert recovered.code_id == content.code_id
        assert recovered.device_id == content.device_id
        assert recovered.dispatch_key == content.dispatch_key
        assert recovered.params == content.params
        assert recovered.code_body == content.code_body
        assert recovered.itinerary.to_dict() == content.itinerary.to_dict()

    def test_no_itinerary_roundtrip(self):
        content = make_content(itinerary=None)
        recovered = pi_from_xml(parse_bytes(write_pi(content)))
        assert recovered.itinerary is None

    def test_missing_required_field_raises(self):
        with pytest.raises(DeploymentError):
            make_content(code_id="")
        with pytest.raises(DeploymentError):
            make_content(dispatch_key="")

    def test_wrong_root_raises(self):
        from repro.xmlcodec import Element

        with pytest.raises(DeploymentError):
            pi_from_xml(Element("nope"))


class TestPackUnpack:
    @pytest.mark.parametrize("encrypt", [True, False])
    @pytest.mark.parametrize("codec", ["lzss", "huffman", "null"])
    def test_roundtrip(self, encrypt, codec):
        config = PDAgentConfig(encrypt=encrypt, codec=codec)
        dev, gw = make_security(config)
        content = make_content()
        packed = pack(content, config, dev, GATEWAY)
        recovered = unpack(packed.data, gw)
        assert recovered.params == content.params
        assert recovered.dispatch_key == content.dispatch_key

    def test_compression_shrinks_wire(self):
        config = PDAgentConfig(codec="lzss", encrypt=False)
        dev, _ = make_security(config)
        packed = pack(make_content(), config, dev, GATEWAY)
        assert packed.compressed_size < packed.xml_size
        assert packed.compression_gain > 0.3

    def test_null_codec_no_gain(self):
        config = PDAgentConfig(codec="null", encrypt=False)
        dev, _ = make_security(config)
        packed = pack(make_content(), config, dev, GATEWAY)
        assert packed.compression_gain <= 0.01

    def test_tampered_pi_rejected(self):
        config = PDAgentConfig()
        dev, gw = make_security(config)
        packed = pack(make_content(), config, dev, GATEWAY)
        frame = bytearray(packed.data)
        frame[-2] ^= 0xFF
        with pytest.raises(IntegrityError):
            unpack(bytes(frame), gw)

    def test_plain_mode_still_integrity_checked(self):
        config = PDAgentConfig(encrypt=False)
        dev, gw = make_security(config)
        packed = pack(make_content(), config, dev, GATEWAY)
        frame = bytearray(packed.data)
        frame[-1] ^= 0x01
        with pytest.raises(IntegrityError):
            unpack(bytes(frame), gw)

    def test_gateway_accepts_both_frame_kinds(self):
        dev_enc, gw = make_security(PDAgentConfig(encrypt=True))
        dev_plain, _ = make_security(PDAgentConfig(encrypt=False))
        enc = pack(make_content(), PDAgentConfig(encrypt=True), dev_enc, GATEWAY)
        plain = pack(make_content(), PDAgentConfig(encrypt=False), dev_plain, GATEWAY)
        assert unpack(enc.data, gw).device_id == "pda"
        assert unpack(plain.data, gw).device_id == "pda"

    def test_encryption_adds_bounded_overhead(self):
        enc_cfg = PDAgentConfig(encrypt=True)
        plain_cfg = PDAgentConfig(encrypt=False)
        dev_e, _ = make_security(enc_cfg)
        dev_p, _ = make_security(plain_cfg)
        enc = pack(make_content(), enc_cfg, dev_e, GATEWAY)
        plain = pack(make_content(), plain_cfg, dev_p, GATEWAY)
        overhead = enc.wire_size - plain.wire_size
        assert 0 < overhead < 200  # RSA block + header vs md5 tag


class TestResultProtection:
    def test_result_roundtrip(self):
        config = PDAgentConfig()
        dev, gw = make_security(config)
        doc = b"<result>ok</result>"
        assert dev.unprotect_result(gw.protect_result(doc)) == doc

    def test_result_tamper_detected(self):
        config = PDAgentConfig()
        dev, gw = make_security(config)
        frame = bytearray(gw.protect_result(b"<result>ok</result>"))
        frame[-1] ^= 1
        with pytest.raises(IntegrityError):
            dev.unprotect_result(bytes(frame))

    def test_not_a_frame_rejected(self):
        config = PDAgentConfig()
        dev, _ = make_security(config)
        with pytest.raises(IntegrityError):
            dev.unprotect_result(b"short")
