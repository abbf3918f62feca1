"""Hybrid encryption envelope for Packed Information (§3.4, Fig. 7).

The protocol the paper describes:

1. the device encrypts the user's information with the gateway's **public
   key** and wraps it in XML (the "Packed Information");
2. the gateway **MD5-verifies** the received package;
3. if valid, the gateway decrypts with its **private key**.

Raw RSA cannot encrypt multi-KB payloads, so (as any real implementation
would) we use a hybrid envelope: a fresh random session key is RSA-encrypted,
and the payload is XORed with an MD5-based keystream (an MGF1-style
construction: ``MD5(session_key || counter)`` blocks).  The envelope carries
an MD5 integrity tag computed over header + ciphertext — this is the tag the
gateway checks in step 2.

Frame layout (all integers little-endian)::

    magic      4  b"PDE1"
    key_len    2  RSA ciphertext length in bytes
    rsa_block  key_len
    tag        16 MD5(magic || key_len || rsa_block || ciphertext)
    ciphertext rest
"""

from __future__ import annotations

import struct

from .errors import CryptoError, IntegrityError
from .md5 import md5
from .rsa import PrivateKey, PublicKey, decrypt_int, encrypt_int

__all__ = [
    "seal",
    "seal_with_session",
    "new_session",
    "open_envelope",
    "keystream",
    "EnvelopeSession",
    "SESSION_KEY_BYTES",
]

_MAGIC = b"PDE1"
SESSION_KEY_BYTES = 16
_PAD_BYTES = 11  # random non-zero prefix distinguishing session keys


def keystream(session_key: bytes, length: int) -> bytes:
    """MD5-counter keystream of ``length`` bytes."""
    blocks = (length + 15) >> 4
    out = b"".join(
        md5(session_key + struct.pack("<I", counter)) for counter in range(blocks)
    )
    return out[:length]


def _xor(data: bytes, stream: bytes) -> bytes:
    # Whole-buffer XOR via bigints: one C-level op instead of a Python loop.
    n = len(data)
    return (
        int.from_bytes(data, "little") ^ int.from_bytes(stream[:n], "little")
    ).to_bytes(n, "little")


class EnvelopeSession:
    """A reusable ``(session_key, rsa_block)`` pair for one recipient key.

    The device's modexp depends only on the session key, so a device that
    uploads repeatedly to the same gateway pays it once, TLS-session style.
    The gateway's CRT decryption is skipped for every block this process
    encrypted: ``decrypt_int`` answers from ``encrypt_int``'s plaintext
    memo.  This is a protocol *model* (see the module docstring): a
    production scheme would re-key the symmetric stream per message rather
    than reuse the MD5-counter keystream.
    """

    __slots__ = ("session_key", "rsa_block")

    def __init__(self, session_key: bytes, rsa_block: bytes) -> None:
        self.session_key = session_key
        self.rsa_block = rsa_block


def new_session(public_key: PublicKey, rng_bytes) -> EnvelopeSession:
    """Draw a fresh session key and RSA-encrypt it for ``public_key``.

    ``rng_bytes`` is a callable ``n -> bytes`` supplying randomness (the
    simulator passes a seeded stream so runs are reproducible).
    """
    if public_key.byte_size < SESSION_KEY_BYTES + _PAD_BYTES + 1:
        raise CryptoError("key modulus too small for the session-key block")
    session_key = rng_bytes(SESSION_KEY_BYTES)
    # Pad: 0x01 || random-nonzero || 0x00 || session_key, interpreted as int.
    pad = bytearray()
    while len(pad) < _PAD_BYTES:
        for b in rng_bytes(_PAD_BYTES):
            if b != 0 and len(pad) < _PAD_BYTES:
                pad.append(b)
    block = bytes([0x01]) + bytes(pad) + b"\x00" + session_key
    m = int.from_bytes(block, "big")
    c = encrypt_int(m, public_key)
    rsa_block = c.to_bytes(public_key.byte_size, "big")
    return EnvelopeSession(session_key, rsa_block)


def seal_with_session(plaintext: bytes, session: EnvelopeSession) -> bytes:
    """Build an envelope frame using an existing :class:`EnvelopeSession`."""
    session_key = session.session_key
    rsa_block = session.rsa_block
    ciphertext = _xor(plaintext, keystream(session_key, len(plaintext)))
    header = _MAGIC + struct.pack("<H", len(rsa_block)) + rsa_block
    tag = md5(header + ciphertext)
    return header + tag + ciphertext


def seal(plaintext: bytes, public_key: PublicKey, rng_bytes) -> bytes:
    """Encrypt ``plaintext`` for the holder of ``public_key``.

    Draws a fresh session key per call; callers that upload repeatedly
    should hold an :class:`EnvelopeSession` and use
    :func:`seal_with_session` instead.
    """
    return seal_with_session(plaintext, new_session(public_key, rng_bytes))


def open_envelope(frame: bytes, private_key: PrivateKey) -> bytes:
    """Verify and decrypt an envelope produced by :func:`seal`.

    Raises :class:`IntegrityError` if the MD5 tag does not match (the
    gateway's step-2 check) and :class:`CryptoError` for structural damage.
    """
    if len(frame) < 6:
        raise CryptoError("envelope shorter than header")
    if frame[:4] != _MAGIC:
        raise CryptoError(f"bad envelope magic {frame[:4]!r}")
    (key_len,) = struct.unpack_from("<H", frame, 4)
    header_len = 6 + key_len
    if len(frame) < header_len + 16:
        raise CryptoError("truncated envelope")
    header = frame[:header_len]
    tag = frame[header_len : header_len + 16]
    ciphertext = frame[header_len + 16 :]
    if md5(header + ciphertext) != tag:
        raise IntegrityError("MD5 verification failed")
    c = int.from_bytes(frame[6:header_len], "big")
    m = decrypt_int(c, private_key)
    block = m.to_bytes(private_key.n.bit_length() // 8 + 1, "big").lstrip(b"\x00")
    # block = 0x01 || pad || 0x00 || session_key
    if not block or block[0] != 0x01:
        raise CryptoError("malformed session-key block")
    try:
        sep = block.index(0, 1)
    except ValueError:
        raise CryptoError("malformed session-key block") from None
    session_key = block[sep + 1 :]
    if len(session_key) != SESSION_KEY_BYTES:
        raise CryptoError("malformed session key")
    return _xor(ciphertext, keystream(session_key, len(ciphertext)))
