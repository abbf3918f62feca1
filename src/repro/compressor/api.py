"""Codec registry and framing.

The paper compresses the XML Packed Information on the device with a "simple
text compression algorithm" before upload.  We provide three codecs behind
one interface so the compression ablation (bench A2) can swap them:

* ``"null"``  — identity (compression disabled),
* ``"huffman"`` — canonical Huffman coding (entropy stage),
* ``"lzss"`` — LZ77-family dictionary coder (what "simple text compression"
  of repetitive XML benefits from most).

Compressed frames are self-describing: a 4-byte magic + codec id + original
length, so :func:`decompress` needs no out-of-band codec knowledge — exactly
like the gateway receiving a PI from an unknown device build.
"""

from __future__ import annotations

import struct
from typing import Protocol

__all__ = [
    "Codec",
    "CompressionError",
    "register",
    "get_codec",
    "codec_names",
    "compress",
    "decompress",
    "compression_ratio",
]

_MAGIC = b"PDC1"
_HEADER = struct.Struct("<4sBI")  # magic, codec id, original length


class CompressionError(Exception):
    """Corrupt frame or codec failure."""


class Codec(Protocol):
    """A stateless byte-to-byte codec."""

    name: str
    codec_id: int

    def encode(self, data: bytes) -> bytes: ...  # pragma: no cover - protocol

    def decode(self, data: bytes, original_length: int) -> bytes: ...  # pragma: no cover


_BY_NAME: dict[str, Codec] = {}
_BY_ID: dict[int, Codec] = {}


def register(codec: Codec) -> Codec:
    """Register a codec instance under its ``name`` and ``codec_id``."""
    if codec.name in _BY_NAME:
        raise ValueError(f"duplicate codec name {codec.name!r}")
    if codec.codec_id in _BY_ID:
        raise ValueError(f"duplicate codec id {codec.codec_id!r}")
    _BY_NAME[codec.name] = codec
    _BY_ID[codec.codec_id] = codec
    return codec


def get_codec(name: str) -> Codec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; available: {sorted(_BY_NAME)}"
        ) from None


def codec_names() -> list[str]:
    return sorted(_BY_NAME)


# Frame memo: codecs are stateless pure functions, so identical inputs
# always produce identical frames — and the platform compresses the *same*
# service code / agent state for every device in a population sweep.  FIFO
# eviction bounds memory; correctness does not depend on hit rate.  Frames
# asked of the null codec skip it: they cost no encode to rebuild.
_FRAME_CACHE: dict[tuple[str, bytes], bytes] = {}
_FRAME_CACHE_MAX = 512


def compress(data: bytes, codec: str = "lzss") -> bytes:
    """Compress ``data`` into a self-describing frame.

    If the codec expands the input (possible on tiny or high-entropy data)
    the frame silently falls back to the null codec — the frame is never
    more than ``len(data) + header`` bytes.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError(f"compress() wants bytes, got {type(data).__name__}")
    data = bytes(data)
    if codec == "null":
        # Framing is the whole job, and a memo entry would hold the bytes
        # twice.
        null = get_codec("null")
        return _HEADER.pack(_MAGIC, null.codec_id, len(data)) + null.encode(data)
    key = (codec, data)
    frame = _FRAME_CACHE.get(key)
    if frame is not None:
        return frame
    chosen = get_codec(codec)
    body = chosen.encode(data)
    if len(body) >= len(data):
        chosen = get_codec("null")
        body = chosen.encode(data)
    frame = _HEADER.pack(_MAGIC, chosen.codec_id, len(data)) + body
    _FRAME_CACHE[key] = frame
    while len(_FRAME_CACHE) > _FRAME_CACHE_MAX:
        _FRAME_CACHE.pop(next(iter(_FRAME_CACHE)))
    return frame


def decompress(frame: bytes) -> bytes:
    """Inverse of :func:`compress`.

    Every corrupt frame raises :class:`CompressionError`; a codec's own
    ``EOFError``/``ValueError`` is its ``__cause__``.
    """
    if len(frame) < _HEADER.size:
        raise CompressionError("frame shorter than header")
    magic, codec_id, length = _HEADER.unpack_from(frame)
    if magic != _MAGIC:
        raise CompressionError(f"bad magic {magic!r}")
    codec = _BY_ID.get(codec_id)
    if codec is None:
        raise CompressionError(f"unknown codec id {codec_id}")
    try:
        out = codec.decode(frame[_HEADER.size :], length)
    except (EOFError, ValueError) as exc:
        raise CompressionError(f"corrupt {codec.name} body: {exc}") from exc
    if len(out) != length:
        raise CompressionError(
            f"length mismatch: header says {length}, decoded {len(out)}"
        )
    return out


def compression_ratio(data: bytes, codec: str = "lzss") -> float:
    """``compressed/original`` size ratio (1.0 = no gain); inf-safe."""
    if not data:
        return 1.0
    return len(compress(data, codec)) / len(data)


def _register_builtins() -> None:
    # Imported lazily to avoid circular imports at package init.
    from .null import NullCodec
    from .huffman import HuffmanCodec
    from .lzss import LzssCodec

    register(NullCodec())
    register(HuffmanCodec())
    register(LzssCodec())


_register_builtins()
