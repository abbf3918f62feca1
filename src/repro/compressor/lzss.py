"""LZSS dictionary codec.

LZ77-family coder with a 4 KB sliding window and 3–34 byte matches — the
classic "simple text compression" profile that suits repetitive XML markup
and was computationally feasible on 2004-era handhelds.

Stream format: 9-bit units, MSB-first, zero-padded to a whole byte.

* a literal is one unit: flag ``0`` then the byte, so its value is the byte;
* a match is two units: flag ``1``, the 12-bit backward distance minus one
  and the 5-bit length minus ``MIN_MATCH``.

The match finder is a hash chain over 3-byte prefixes, walked most recent
candidate first and bounded by ``_MAX_CHAIN``; the first strictly longest
match wins.  Because every token is whole units, numpy does the bulk work
in one pass each: the chain table, the runs of positions with no
in-window candidate (appended as literal runs without a search), the bit
packing and, on decode, the unpacking and the runs of literal units
(copied as slices).  The Python loops step once per literal run and once
per position with a candidate (encode) or per match (decode).

Each codec instance also remembers the inputs of the last ``_MEMO_MAX``
bodies it encoded.  ``decode(encode(x), len(x)) == x`` is the round trip,
so decoding one of those bodies at that length is a lookup; every other
body runs the decoder.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LzssCodec", "WINDOW_SIZE", "MIN_MATCH", "MAX_MATCH"]

WINDOW_SIZE = 1 << 12  # 4096-byte window → 12-bit distances
MIN_MATCH = 3
MAX_MATCH = MIN_MATCH + (1 << 5) - 1  # 5-bit length field
_MAX_CHAIN = 64  # bound the match-finder work per position
_NO_LINK = -WINDOW_SIZE - 1  # a chain link no position's window reaches
_UNIT_WEIGHTS = 1 << np.arange(8, -1, -1, dtype=np.uint16)  # MSB-first
# Bodies whose inputs an instance remembers: the 512 frames the compression
# memo can serve without encoding, plus 128 encodes made while frames travel.
_MEMO_MAX = 640


def _next_at_or_after(marks: np.ndarray, size: int) -> memoryview:
    """``out[i]`` = first mark ``>= i`` (``size`` if none), for ``i <= size``."""
    out = np.full(size + 1, size, dtype=np.int64)
    out[marks] = marks
    return memoryview(np.minimum.accumulate(out[::-1])[::-1].copy())


def _chains(data: bytes) -> tuple[memoryview, memoryview]:
    """The chain table and, for each position, the next one worth searching.

    ``prev[j]`` = nearest position ``< j`` with the same 3-byte hash (else
    ``_NO_LINK``): walking ``prev[prev[...]]`` enumerates earlier same-hash
    candidates nearest-first, exactly like an incrementally-built head/prev
    chain table.  ``ahead[i]`` = first position ``>= i`` whose nearest
    candidate is in the window (``len(data)`` if none): every byte before
    it is a literal.
    """
    buf = np.frombuffer(data, dtype=np.uint8).astype(np.uint16)
    # At most 255 * (131 + 31 + 1) = 41565: the hash needs no mask in uint16,
    # and a stable argsort of uint16 keys is a radix sort.
    hashes = buf[:-2] * 131 + buf[1:-1] * 31 + buf[2:]
    order = np.argsort(hashes, kind="stable")
    ordered = hashes[order]
    # Equal hashes sort into runs of ascending positions, so each position's
    # link is its predecessor in the run.
    link = np.full(order.size, _NO_LINK)
    link[1:] = np.where(ordered[1:] == ordered[:-1], order[:-1], _NO_LINK)
    prev = np.empty_like(link)
    prev[order] = link
    searchable = np.flatnonzero(np.arange(prev.size) - prev <= WINDOW_SIZE)
    return memoryview(prev), _next_at_or_after(searchable, len(data))


class LzssCodec:
    """Sliding-window dictionary coder with a memo of what it encoded."""

    name = "lzss"
    codec_id = 2

    def __init__(self) -> None:
        #: body -> input, in the order ``encode`` last built each body.
        self._inputs: dict[bytes, bytes] = {}

    def encode(self, data: bytes) -> bytes:
        n = len(data)
        prev, ahead = _chains(data)
        from_bytes = int.from_bytes
        units: list[int] = []
        i = 0
        while i < n:
            j = ahead[i]
            if j > i:
                units.extend(data[i:j])  # no candidate in the window: literals
                if j == n:
                    break
                i = j
            limit = MAX_MATCH if n - i > MAX_MATCH else n - i
            floor = i - WINDOW_SIZE
            best_len = 0
            candidate = prev[i]
            chain = 0
            while candidate >= floor and chain < _MAX_CHAIN:
                # A candidate can only beat ``best_len`` if it also matches
                # at offset ``best_len``: one byte compare skips the rest.
                if best_len == 0 or data[candidate + best_len] == data[i + best_len]:
                    here = data[i : i + limit]
                    there = data[candidate : candidate + limit]
                    if here == there:  # the common case: a full-length match
                        length = limit
                    else:
                        # The first differing byte is the XOR's highest nonzero one.
                        diff = from_bytes(here, "big") ^ from_bytes(there, "big")
                        length = limit - (diff.bit_length() + 7 >> 3)
                    if length > best_len:
                        best_len = length
                        best_dist = i - candidate
                        if length == limit:
                            break
                candidate = prev[candidate]
                chain += 1
            if best_len >= MIN_MATCH:
                dist = best_dist - 1
                units += (256 | dist >> 4, (dist & 15) << 5 | best_len - MIN_MATCH)
                i += best_len
            else:
                units.append(data[i])
                i += 1
        # Each unit as 16 big-endian bits; its low 9 are the stream.
        bits = np.unpackbits(np.array(units, dtype=">u2").view(np.uint8))
        body = np.packbits(bits.reshape(-1, 16)[:, 7:]).tobytes()
        inputs = self._inputs
        inputs.pop(body, None)
        inputs[body] = bytes(data)
        if len(inputs) > _MEMO_MAX:
            del inputs[next(iter(inputs))]
        return body

    def decode(self, data: bytes, original_length: int) -> bytes:
        if isinstance(data, bytes):
            known = self._inputs.get(data)
            if known is not None and len(known) == original_length:
                return known
        return _decode(data, original_length)


def _decode(data: bytes, original_length: int) -> bytes:
    """The decoder proper: ``original_length`` bytes from the unit stream."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    m = bits.size // 9  # whole units; the rest is padding
    units = bits[: m * 9].reshape(m, 9) @ _UNIT_WEIGHTS
    low = units.astype(np.uint8).tobytes()
    flagged = _next_at_or_after(np.flatnonzero(units >> 8), m)
    # Every unit read as the first half of a match: distance and length.
    token = (units[:-1] & 0xFF).astype(np.int32) << 9 | units[1:]
    dists = memoryview((token >> 5) + 1)
    lengths = memoryview((token & 0x1F) + MIN_MATCH)
    out = bytearray()
    produced = 0
    k = 0
    while produced < original_length:
        j = flagged[k]
        if j > k:
            # Units k..j-1 are literals: copy their low bytes at once.
            if j - k > original_length - produced:
                j = k + original_length - produced
            out += low[k:j]
            produced += j - k
            k = j
            continue
        if k + 1 >= m:
            raise EOFError("bit stream exhausted")
        dist = dists[k]
        length = lengths[k]
        start = produced - dist
        if start < 0:
            raise ValueError("corrupt lzss stream: distance underflow")
        if dist >= length:
            out += out[start : start + length]
        else:
            # Overlapping copy: the match repeats the last ``dist``
            # bytes, so tile that pattern instead of copying per byte.
            pattern = out[start:produced]
            reps, rem = divmod(length, dist)
            out += pattern * reps + pattern[:rem]
        produced += length
        k += 2
    if produced != original_length:
        raise ValueError("corrupt lzss stream: length overshoot")
    return bytes(out)
