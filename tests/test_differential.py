"""Differential tests: the from-scratch substrate vs reference oracles.

The pure-python MD5 is checked bit-for-bit against :mod:`hashlib` over
randomized corpora (including every padding-boundary length), and the LZSS
codec is checked by the ``decompress(compress(x)) == x`` oracle with the
frame memo both enabled and disabled — a memo bug would otherwise hide
behind cache hits.  Decoding goes through an LZSS codec that encoded
nothing, so the codec's own body memo cannot answer for the decoder.
"""

import hashlib
import random

import pytest

from repro.compressor import api as compressor_api
from repro.compressor import compress, decompress
from repro.compressor.lzss import LzssCodec
from repro.crypto.md5 import MD5, md5, md5_hex


def _corpora(rng: random.Random) -> list[bytes]:
    """Adversarial byte corpora: empty, tiny, repetitive, incompressible."""
    cases = [
        b"",
        b"\x00",
        b"A",
        b"ab" * 500,
        b"<x a='1'>text</x>" * 64,
        bytes(rng.randrange(256) for _ in range(1024)),  # incompressible
        bytes([rng.randrange(4)]) * rng.randrange(1, 2000),
    ]
    for _ in range(20):
        n = rng.randrange(0, 512)
        cases.append(bytes(rng.randrange(256) for _ in range(n)))
    return cases


class TestMD5Differential:
    # Lengths straddling the 64-byte block and 56-byte padding boundaries.
    BOUNDARY_SIZES = [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128, 1000]

    @pytest.mark.parametrize("size", BOUNDARY_SIZES)
    def test_boundary_sizes_match_hashlib(self, size, seeded_rng):
        data = bytes(seeded_rng.randrange(256) for _ in range(size))
        assert MD5(data).hexdigest() == hashlib.md5(data).hexdigest()

    def test_random_corpora_match_hashlib(self, seeded_rng):
        for data in _corpora(seeded_rng):
            assert MD5(data).digest() == hashlib.md5(data).digest()
            assert md5(data) == hashlib.md5(data).digest()
            assert md5_hex(data) == hashlib.md5(data).hexdigest()

    def test_chunked_updates_match_one_shot(self, seeded_rng):
        data = bytes(seeded_rng.randrange(256) for _ in range(700))
        ref = hashlib.md5(data).hexdigest()
        for chunk in (1, 7, 63, 64, 65, 300):
            h = MD5()
            for i in range(0, len(data), chunk):
                h.update(data[i : i + chunk])
            assert h.hexdigest() == ref, f"chunk size {chunk}"

    def test_digest_does_not_finalize(self, seeded_rng):
        # hashlib allows update() after digest(); the clone-based padding
        # must preserve that.
        h = MD5(b"abc")
        first = h.hexdigest()
        assert first == hashlib.md5(b"abc").hexdigest()
        h.update(b"def")
        assert h.hexdigest() == hashlib.md5(b"abcdef").hexdigest()
        assert first == hashlib.md5(b"abc").hexdigest()


class TestLzssDifferential:
    @pytest.fixture(params=["memo-on", "memo-off"])
    def memo(self, request, monkeypatch):
        """Run each roundtrip with the frame memo enabled and disabled.

        ``decompress`` decodes LZSS with a fresh codec either way.
        """
        monkeypatch.setattr(compressor_api, "_FRAME_CACHE", {})
        monkeypatch.setitem(compressor_api._BY_ID, LzssCodec.codec_id, LzssCodec())
        if request.param == "memo-off":
            monkeypatch.setattr(compressor_api, "_FRAME_CACHE_MAX", 0)
        return request.param

    @pytest.mark.parametrize("codec", ["lzss", "huffman", "null"])
    def test_roundtrip_randomized_corpora(self, codec, memo, seeded_rng):
        for data in _corpora(seeded_rng):
            frame = compress(data, codec)
            assert decompress(frame) == data
            # Second pass: memo-on serves from cache, memo-off re-encodes;
            # both must produce the identical frame.
            assert compress(data, codec) == frame

    def test_memo_state_matches_mode(self, memo, seeded_rng):
        data = bytes([seeded_rng.randrange(8)]) * 256
        compress(data, "lzss")
        if memo == "memo-off":
            assert not compressor_api._FRAME_CACHE
        else:
            assert ("lzss", data) in compressor_api._FRAME_CACHE

    def test_memo_and_fresh_frames_identical(self, seeded_rng, monkeypatch):
        monkeypatch.setattr(compressor_api, "_FRAME_CACHE", {})
        data = b"<pi>" + bytes(seeded_rng.randrange(64) for _ in range(512)) + b"</pi>"
        cached = compress(data, "lzss")
        assert compress(data, "lzss") is cached  # served by the memo
        monkeypatch.setattr(compressor_api, "_FRAME_CACHE", {})
        assert compress(data, "lzss") == cached  # re-encoded, byte-identical
