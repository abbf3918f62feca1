"""Tests for the compression substrate: codecs, framing, properties."""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compressor import (
    CompressionError,
    codec_names,
    compress,
    compression_ratio,
    decompress,
    get_codec,
)
from repro.compressor import api as compressor_api
from repro.compressor import lzss
from repro.compressor.bitio import BitReader, BitWriter
from repro.compressor.huffman import canonical_codes, code_lengths
from repro.compressor.lzss import MAX_MATCH, MIN_MATCH, WINDOW_SIZE, LzssCodec, _chains


def _decompress_cold(frame: bytes) -> bytes:
    """``decompress`` through an LZSS codec that encoded nothing.

    The registered codec answers the bodies it encoded from its memo, so a
    round trip through it never runs the decoder proper; this one does.
    """
    with mock.patch.dict(compressor_api._BY_ID, {LzssCodec.codec_id: LzssCodec()}):
        return decompress(frame)


class TestBitIO:
    def test_roundtrip_bits(self):
        w = BitWriter()
        w.write_bits(0b1011, 4)
        w.write_bits(0xFF, 8)
        w.write_bit(1)
        data = w.getvalue()
        r = BitReader(data)
        assert r.read_bits(4) == 0b1011
        assert r.read_bits(8) == 0xFF
        assert r.read_bit() == 1

    def test_len_counts_bits(self):
        w = BitWriter()
        w.write_bits(0, 13)
        assert len(w) == 13

    def test_reader_eof(self):
        r = BitReader(b"\x00")
        r.read_bits(8)
        with pytest.raises(EOFError):
            r.read_bit()

    def test_negative_width_raises(self):
        with pytest.raises(ValueError):
            BitWriter().write_bits(1, -1)


class TestHuffman:
    def test_code_lengths_empty(self):
        assert code_lengths(b"") == [0] * 256

    def test_single_symbol_gets_one_bit(self):
        lengths = code_lengths(b"aaaa")
        assert lengths[ord("a")] == 1
        assert sum(1 for l in lengths if l) == 1

    def test_frequent_symbols_shorter(self):
        data = b"a" * 100 + b"b" * 10 + b"c"
        lengths = code_lengths(data)
        assert lengths[ord("a")] <= lengths[ord("b")] <= lengths[ord("c")]

    def test_kraft_inequality(self):
        data = bytes(range(256)) * 3 + b"x" * 1000
        lengths = code_lengths(data)
        kraft = sum(2.0 ** -l for l in lengths if l)
        assert kraft <= 1.0 + 1e-9

    def test_canonical_codes_prefix_free(self):
        data = b"the quick brown fox jumps over the lazy dog" * 5
        codes = canonical_codes(code_lengths(data))
        items = [(format(c, f"0{w}b")) for c, w in codes.values()]
        for i, a in enumerate(items):
            for j, b in enumerate(items):
                if i != j:
                    assert not b.startswith(a)

    def test_compresses_skewed_text(self):
        data = (b"aaaaabbbcc" * 200)
        ratio = compression_ratio(data, "huffman")
        assert ratio < 0.6


class TestLzss:
    def test_repetitive_input_compresses_hard(self):
        data = b"<t>100</t>" * 300
        ratio = compression_ratio(data, "lzss")
        assert ratio < 0.1

    def test_match_bounds(self):
        assert MIN_MATCH == 3
        assert MAX_MATCH == 34

    def test_incompressible_roundtrip(self):
        import os

        data = os.urandom(2000)
        assert _decompress_cold(compress(data, "lzss")) == data

    def test_decode_rejects_bad_distance(self):
        codec = LzssCodec()
        # flag=1, distance=4095 (way beyond output), length=3
        from repro.compressor.bitio import BitWriter

        w = BitWriter()
        w.write_bit(1)
        w.write_bits(4094, 12)
        w.write_bits(0, 5)
        with pytest.raises(ValueError):
            codec.decode(w.getvalue(), 3)

    def test_decode_rejects_truncated_stream(self):
        codec = LzssCodec()
        data = b"<txn><amount>25.0</amount></txn>" * 20
        body = codec.encode(data)
        with pytest.raises(EOFError, match="bit stream exhausted"):
            codec.decode(body[: len(body) // 2], len(data))

    def test_decode_rejects_match_missing_second_unit(self):
        w = BitWriter()
        for byte in b"ab":
            w.write_bits(byte, 9)  # two literals
        w.write_bits(0b100000000, 9)  # first half of a match, then padding
        with pytest.raises(EOFError, match="bit stream exhausted"):
            LzssCodec().decode(w.getvalue(), 5)

    def test_decode_rejects_match_overrunning_length(self):
        codec = LzssCodec()
        body = codec.encode(b"abcabcabc")  # 3 literals + a 6-byte match
        assert codec.decode(body, 9) == b"abcabcabc"
        with pytest.raises(ValueError, match="length overshoot"):
            codec.decode(body, 5)


class TestLzssMemo:
    """A codec decodes the bodies it encoded by lookup, and nothing else."""

    DATA = b"<txn><amount>25.0</amount></txn>" * 20

    @pytest.fixture
    def decodes(self, monkeypatch):
        """Calls of the decoder proper, by argument."""
        calls = []

        def counted(data, original_length):
            calls.append((bytes(data), original_length))
            return real(data, original_length)

        real = lzss._decode
        monkeypatch.setattr(lzss, "_decode", counted)
        return calls

    def test_hit_returns_equal_bytes_without_decoding(self, decodes):
        codec = LzssCodec()
        body = codec.encode(self.DATA)
        assert codec.decode(body, len(self.DATA)) == self.DATA
        assert decodes == []

    @pytest.mark.parametrize(
        "delta, error, match",
        [(-1, ValueError, "length overshoot"), (1, EOFError, "bit stream exhausted")],
    )
    def test_wrong_length_raises_as_without_the_memo(self, decodes, delta, error, match):
        codec = LzssCodec()
        body = codec.encode(self.DATA)
        with pytest.raises(error, match=match):
            codec.decode(body, len(self.DATA) + delta)
        with pytest.raises(error, match=match):
            LzssCodec().decode(body, len(self.DATA) + delta)
        assert len(decodes) == 2

    def test_body_from_another_instance_is_decoded(self, decodes):
        body = LzssCodec().encode(self.DATA)
        assert LzssCodec().decode(body, len(self.DATA)) == self.DATA
        assert decodes == [(body, len(self.DATA))]

    def test_body_pushed_out_by_the_bound_is_decoded(self, decodes, monkeypatch):
        monkeypatch.setattr(lzss, "_MEMO_MAX", 2)
        codec = LzssCodec()
        inputs = [self.DATA + bytes([k]) for k in range(3)]
        bodies = [codec.encode(data) for data in inputs]
        assert codec.decode(bodies[2], len(inputs[2])) == inputs[2]
        assert decodes == []
        assert codec.decode(bodies[0], len(inputs[0])) == inputs[0]
        assert decodes == [(bodies[0], len(inputs[0]))]

    def test_encoding_a_body_again_keeps_it(self, decodes, monkeypatch):
        monkeypatch.setattr(lzss, "_MEMO_MAX", 2)
        codec = LzssCodec()
        first = codec.encode(self.DATA)
        codec.encode(b"other input " * 8)
        codec.encode(self.DATA)
        codec.encode(b"a third input " * 8)  # pushes out "other input"
        assert codec.decode(first, len(self.DATA)) == self.DATA
        assert decodes == []

    def test_bytearray_input_is_decoded(self, decodes):
        codec = LzssCodec()
        body = codec.encode(self.DATA)
        assert codec.decode(bytearray(body), len(self.DATA)) == self.DATA
        assert decodes == [(body, len(self.DATA))]

    def test_mutating_a_bytearray_input_leaves_the_memo_intact(self):
        codec = LzssCodec()
        data = bytearray(self.DATA)
        body = codec.encode(data)
        data[:5] = b"XXXXX"
        assert codec.decode(body, len(self.DATA)) == self.DATA


def _bitstream_corpus() -> list[bytes]:
    """Inputs that reach every LZSS selection rule and both length limits."""
    from repro.apps.ebanking import EBankingAgent, make_transactions
    from repro.core import PIContent
    from repro.core.packed_info import write_pi
    from repro.crypto import derive_dispatch_key
    from repro.mas import Itinerary, Stop, serialize_agent

    noise = b"".join(hashlib.sha256(k.to_bytes(2, "big")).digest() for k in range(256))
    block = noise[:40]
    # 40 far and 63 near "abc?" decoys around "abcDEFGH": the needle's
    # best match is exactly the 64th candidate of a 104-long chain.
    chain = (
        b"".join(b"abc" + bytes([0xC0 + k]) for k in range(40))
        + b"abcDEFGH"
        + b"".join(b"abc" + bytes([0x80 + k]) for k in range(63))
        + b"abcDEFGH"
    )
    transactions = make_transactions(["bank-a", "bank-b"], 8)
    pi = PIContent(
        code_id="mac-000001",
        device_id="pda",
        service="ebanking",
        agent_class="EBankingAgent",
        dispatch_key=derive_dispatch_key("mac-000001", "pda", "n"),
        nonce="n",
        params={"transactions": transactions},
        code_body="EBankingAgent;" * 200,
    )
    agent = EBankingAgent(
        "gw-0/1",
        "pda",
        "gw-0",
        itinerary=Itinerary(origin="gw-0", stops=[Stop("bank-a"), Stop("bank-b")]),
        state={"params": {"transactions": transactions[:6]}, "results": []},
    )
    return [
        b"",
        b"a",
        b"ab",
        b"abc",
        b"a" * 100,  # overlapping distance-1 matches at the 34-byte limit
        block + block,  # a 34-byte match, then a 6-byte one at the n - i limit
        block + block[:10],  # a match cut short by the n - i limit
        block + noise[40:4096] + block,  # distance exactly 4096: in the window
        block + noise[40:4097] + block,  # distance 4097: out of the window
        chain,
        b"xyz-xz[-xyz-xz[-xz[xyz-xyzxz[",  # "xyz"/"xz[" share a 3-byte hash
        b"<t>100</t>" * 30,
        noise[:600],
        write_pi(pi),
        serialize_agent(agent),
    ]


def _reference_chains(data: bytes) -> tuple[list[int], list[int]]:
    """``_chains`` built one position at a time, as a head/prev table is."""
    n = len(data)
    last: dict[int, int] = {}
    prev = []
    for j in range(n - 2):
        h = (data[j] * 131 + data[j + 1] * 31 + data[j + 2]) & 0xFFFF
        prev.append(last.get(h, -1))
        last[h] = j
    ahead = [n] * (n + 1)
    for i in range(n - 1, -1, -1):
        searchable = i < len(prev) and 0 <= prev[i] and i - prev[i] <= WINDOW_SIZE
        ahead[i] = i if searchable else ahead[i + 1]
    return prev, ahead


class TestLzssBitstream:
    """The encoder's exact output on a fixed corpus, pinned by digest.

    Greedy nearest-first search, strictly-longer-wins, the 4 KB window, the
    64-candidate chain cap, the 3-34 byte length range and the 9/18-bit
    token layout all show in the bytes: changing any of them moves the
    digest.
    """

    DIGEST = "c764461d32caf43b63f92fd3c8d2ef49593bb4004ab7bf4d8e3d169ff76ebe82"

    def test_bitstream_digest(self):
        codec = LzssCodec()
        digest = hashlib.sha256()
        for data in _bitstream_corpus():
            body = codec.encode(data)
            assert LzssCodec().decode(body, len(data)) == data  # no memo
            digest.update(len(body).to_bytes(4, "big") + body)
        assert digest.hexdigest() == self.DIGEST

    @staticmethod
    def _assert_chains(data):
        prev, ahead = _chains(data)
        want_prev, want_ahead = _reference_chains(data)
        assert [max(p, -1) for p in prev] == want_prev
        assert list(ahead) == want_ahead

    def test_chains_match_incremental_reference(self):
        for data in _bitstream_corpus():
            self._assert_chains(data)

    @given(st.text(alphabet="xyz[abc", max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_chains_match_reference_on_colliding_text(self, text):
        self._assert_chains(text.encode())


class TestFraming:
    def test_roundtrip_all_codecs(self):
        data = b"<pi><txn id='1'>100</txn><txn id='2'>100</txn></pi>" * 10
        for name in codec_names():
            assert _decompress_cold(compress(data, name)) == data

    def test_empty_input(self):
        for name in codec_names():
            assert _decompress_cold(compress(b"", name)) == b""

    def test_single_byte(self):
        for name in codec_names():
            assert _decompress_cold(compress(b"z", name)) == b"z"

    def test_unknown_codec_raises(self):
        with pytest.raises(KeyError):
            compress(b"x", "zstd")

    def test_non_bytes_raises(self):
        with pytest.raises(TypeError):
            compress("string", "lzss")

    def test_expanding_input_falls_back_to_null(self):
        import os

        data = os.urandom(64)
        frame = compress(data, "huffman")
        # never more than original + header (9 bytes)
        assert len(frame) <= len(data) + 9

    def test_null_frame_is_built_without_the_memo(self, monkeypatch):
        from repro.compressor import api

        monkeypatch.setattr(api, "_FRAME_CACHE", {})
        data = b"<agent id='a-1'/>" * 3
        frame = compress(data, "null")
        # magic, codec id 0, little-endian length, then the bytes themselves
        assert frame == b"PDC1\x00" + len(data).to_bytes(4, "little") + data
        assert api._FRAME_CACHE == {}

    def test_bad_magic_raises(self):
        with pytest.raises(CompressionError):
            decompress(b"XXXX" + b"\x00" * 20)

    def test_short_frame_raises(self):
        with pytest.raises(CompressionError):
            decompress(b"PD")

    def test_truncated_length_mismatch_raises(self):
        frame = compress(b"hello world, hello world, hello", "null")
        with pytest.raises(CompressionError):
            decompress(frame[:-3])

    @pytest.mark.parametrize("codec", ["lzss", "huffman"])
    def test_corrupt_body_raises_compression_error(self, codec):
        data = b"<t>100</t>" * 50
        frame = compress(data, codec)
        with pytest.raises(CompressionError, match="corrupt"):
            decompress(frame[: len(frame) // 2])

    def test_lzss_overrun_raises_compression_error(self):
        frame = bytearray(compress(b"abcabcabc" * 4, "lzss"))
        frame[5] -= 1  # header length one short of what the body decodes to
        with pytest.raises(CompressionError, match="length overshoot"):
            decompress(bytes(frame))

    def test_unknown_codec_id_raises(self):
        frame = bytearray(compress(b"abc", "null"))
        frame[4] = 77  # codec id byte
        with pytest.raises(CompressionError):
            decompress(bytes(frame))

    def test_get_codec(self):
        assert get_codec("lzss").name == "lzss"
        with pytest.raises(KeyError):
            get_codec("nope")

    def test_compression_ratio_empty(self):
        assert compression_ratio(b"") == 1.0

    def test_xml_compresses_below_half(self):
        # the PI use case: repetitive XML must shrink substantially
        xml = (
            b"<transaction><from>bank-a</from><to>bank-b</to>"
            b"<amount>125.00</amount></transaction>"
        ) * 20
        assert compression_ratio(xml, "lzss") < 0.25


# ---------------------------------------------------------------- property tests


class TestRoundtripProperties:
    @given(st.binary(max_size=3000))
    @settings(max_examples=80, deadline=None)
    def test_lzss_roundtrip(self, data):
        assert _decompress_cold(compress(data, "lzss")) == data
        # Most of these frames fall back to the null codec: decode the
        # LZSS body itself too, with an instance that did not encode it.
        assert LzssCodec().decode(LzssCodec().encode(data), len(data)) == data

    @given(st.binary(max_size=3000))
    @settings(max_examples=80, deadline=None)
    def test_huffman_roundtrip(self, data):
        assert decompress(compress(data, "huffman")) == data

    @given(st.binary(max_size=1000))
    @settings(max_examples=60, deadline=None)
    def test_frame_never_expands_beyond_header(self, data):
        for name in ("lzss", "huffman", "null"):
            assert len(compress(data, name)) <= len(data) + 9

    @given(st.text(alphabet="ab<>/=\"0123456789", max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_xmlish_text_roundtrip(self, text):
        data = text.encode()
        assert _decompress_cold(compress(data, "lzss")) == data
        assert LzssCodec().decode(LzssCodec().encode(data), len(data)) == data
