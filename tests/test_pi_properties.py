"""End-of-pipeline property tests: any well-formed user parameters survive
the complete PI pipeline (XML → compress → encrypt → wire → back) under
every codec/security combination, and the dispatch-key scheme never
collides across distinct inputs."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PDAgentConfig, PIContent, pack, unpack
from repro.core.security import DeviceSecurity, GatewaySecurity
from repro.crypto import KeyRing, KeyVault, derive_dispatch_key

VAULT = KeyVault(bits=512, seed=5)
GATEWAY = "gw-prop"
_KEYPAIR = VAULT.keypair(GATEWAY)

_params = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.recursive(
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**31), max_value=2**31)
        | st.floats(allow_nan=False, allow_infinity=False, width=32)
        | st.text(max_size=30),
        lambda kids: st.lists(kids, max_size=3)
        | st.dictionaries(st.text(min_size=1, max_size=6), kids, max_size=3),
        max_leaves=10,
    ),
    max_size=6,
)


def _security(config):
    ring = KeyRing()
    ring.add(GATEWAY, _KEYPAIR.public)
    rng = random.Random(11)
    dev = DeviceSecurity(config, ring, lambda n: bytes(rng.randrange(256) for _ in range(n)))
    gw = GatewaySecurity(config, _KEYPAIR)
    return dev, gw


class TestPiPipelineProperties:
    @given(params=_params, codec=st.sampled_from(["lzss", "huffman", "null"]),
           encrypt=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_any_params(self, params, codec, encrypt):
        config = PDAgentConfig(codec=codec, encrypt=encrypt)
        dev, gw = _security(config)
        content = PIContent(
            code_id="mac-p",
            device_id="pda-p",
            service="svc",
            agent_class="EBankingAgent",
            dispatch_key=derive_dispatch_key("mac-p", "pda-p", "n"),
            nonce="n",
            params=params,
            code_body="CODE" * 64,
        )
        packed = pack(content, config, dev, GATEWAY)
        recovered = unpack(packed.data, gw)
        assert recovered.params == params
        assert recovered.code_body == content.code_body
        assert recovered.dispatch_key == content.dispatch_key

    @given(params=_params)
    @settings(max_examples=40, deadline=None)
    def test_wire_never_absurdly_larger_than_xml(self, params):
        config = PDAgentConfig(codec="lzss", encrypt=True)
        dev, _ = _security(config)
        content = PIContent(
            code_id="mac-p",
            device_id="pda-p",
            service="svc",
            agent_class="A",
            dispatch_key=derive_dispatch_key("mac-p", "pda-p", "n"),
            nonce="n",
            params=params,
        )
        packed = pack(content, config, dev, GATEWAY)
        # compression falls back to null on incompressible data, so the wire
        # form is bounded by XML + frame header + envelope overhead.
        assert packed.wire_size <= packed.xml_size + 9 + 120


class TestDispatchKeyProperties:
    @given(
        st.lists(
            st.tuples(
                st.text(min_size=1, max_size=10),
                st.text(min_size=1, max_size=10),
                st.text(min_size=0, max_size=10),
            ),
            min_size=2,
            max_size=20,
            unique=True,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_distinct_inputs_distinct_keys(self, triples):
        # The '|' separator could allow ambiguity if fields contained it;
        # exclude that case (the platform's ids/nonces never contain '|').
        triples = [
            t for t in triples if all("|" not in field for field in t)
        ]
        keys = [derive_dispatch_key(c, d, n) for c, d, n in triples]
        assert len(set(keys)) == len(set(triples))

    @given(st.text(min_size=1, max_size=16), st.text(min_size=1, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_key_stable(self, code_id, device_id):
        a = derive_dispatch_key(code_id, device_id, "n0")
        b = derive_dispatch_key(code_id, device_id, "n0")
        assert a == b


# Adversarial parameter values: markup/CDATA terminators, entity-like text,
# control characters, non-ASCII scripts, and a 10KB blob — everything an
# attacker-controlled (or merely unlucky) app parameter could feed the PI
# pipeline.  Surrogates excluded: not UTF-8-encodable, rejected upstream.
_nasty_text = st.one_of(
    st.sampled_from(
        [
            "]]>",
            "<![CDATA[boom]]>",
            "<pi code-id='x'/>",
            "&amp;&bogus;&#x41;&",
            '"\'<>&',
            "\t\n\x0b\x1f\x7f",
            "漢字\N{SNOWMAN}עברית ελληνικά",
            "%s%n${jndi:}",
            "x" * 10_000,  # 10KB attribute payload
        ]
    ),
    st.text(
        alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)),
        max_size=200,
    ),
)


class TestAdversarialParams:
    @given(
        value=_nasty_text,
        codec=st.sampled_from(["lzss", "huffman", "null"]),
        encrypt=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_nasty_strings_survive_pipeline(self, value, codec, encrypt):
        config = PDAgentConfig(codec=codec, encrypt=encrypt)
        dev, gw = _security(config)
        content = PIContent(
            code_id="mac-p",
            device_id="pda-p",
            service="svc",
            agent_class="EBankingAgent",
            dispatch_key=derive_dispatch_key("mac-p", "pda-p", "n"),
            nonce="n",
            params={"payload": value, "nested": {"deep": [value, value]}},
            code_body=value or "CODE",
        )
        packed = pack(content, config, dev, GATEWAY)
        recovered = unpack(packed.data, gw)
        assert recovered.params["payload"] == value
        assert recovered.params["nested"]["deep"] == [value, value]
        assert recovered.code_body == content.code_body

    def test_ten_kilobyte_param_roundtrips_under_compression(self):
        config = PDAgentConfig(codec="lzss", encrypt=True)
        dev, gw = _security(config)
        blob = ('<item price="9.99">&amp;' + "牛肉麵 " * 3) * 300
        assert len(blob) > 10_000
        content = PIContent(
            code_id="mac-p",
            device_id="pda-p",
            service="svc",
            agent_class="FoodSearchAgent",
            dispatch_key=derive_dispatch_key("mac-p", "pda-p", "n"),
            nonce="n",
            params={"listings": blob},
        )
        recovered = unpack(pack(content, config, dev, GATEWAY).data, gw)
        assert recovered.params["listings"] == blob
