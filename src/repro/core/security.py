"""§3.4 information security model, device and gateway halves.

Protocol (paper Fig. 7):

1. device encrypts the user's information with the gateway's **public key**
   and wraps it as Packed Information;
2. gateway uses **MD5** to verify the received PI is valid;
3. gateway extracts code + requirements with its **private key**.

:class:`DeviceSecurity` performs step 1; :class:`GatewaySecurity` steps 2–3.
When encryption is disabled (ablation A3) the payload travels as
``md5_tag || payload`` — integrity only, which keeps step 2 meaningful.
"""

from __future__ import annotations

from typing import Callable

from ..crypto import (
    IntegrityError,
    KeyRing,
    PrivateKey,
    md5,
    new_session,
    open_envelope,
    seal_with_session,
)
from .config import PDAgentConfig

__all__ = ["DeviceSecurity", "GatewaySecurity", "PLAIN_MAGIC"]

PLAIN_MAGIC = b"PDP1"  # plain (integrity-only) frame marker


class DeviceSecurity:
    """Device-side sealing of outbound Packed Information."""

    def __init__(
        self,
        config: PDAgentConfig,
        keyring: KeyRing,
        rng_bytes: Callable[[int], bytes],
    ) -> None:
        self.config = config
        self.keyring = keyring
        self._rng_bytes = rng_bytes
        # One EnvelopeSession per (gateway, public key): repeat uploads to
        # the same gateway reuse the RSA work; a key rotation (new public
        # key for the address) naturally misses and re-keys.
        self._sessions: dict = {}

    def protect(self, payload: bytes, gateway: str) -> bytes:
        """Seal ``payload`` for ``gateway`` (or tag it when encryption is off)."""
        if self.config.encrypt:
            public_key = self.keyring.get(gateway)
            session = self._sessions.get((gateway, public_key))
            if session is None:
                session = new_session(public_key, self._rng_bytes)
                self._sessions[(gateway, public_key)] = session
            return seal_with_session(payload, session)
        return PLAIN_MAGIC + md5(payload) + payload

    def unprotect_result(self, frame: bytes) -> bytes:
        """Verify a result document downloaded from a gateway.

        Results travel integrity-tagged (the gateway has no device public
        key to encrypt to — devices hold no keypairs in the paper's model).
        """
        return _open_plain(frame)


class GatewaySecurity:
    """Gateway-side verification and decryption of inbound PI."""

    def __init__(self, config: PDAgentConfig, private_key: PrivateKey) -> None:
        self.config = config
        self.private_key = private_key

    def unprotect(self, frame: bytes) -> bytes:
        """Verify (MD5) then decrypt an inbound PI frame.

        Accepts both sealed and plain frames, so a mixed deployment (some
        devices with encryption disabled) still interoperates.
        """
        if frame[:4] == PLAIN_MAGIC:
            return _open_plain(frame)
        return open_envelope(frame, self.private_key)

    def protect_result(self, payload: bytes) -> bytes:
        """Integrity-tag an outbound result document."""
        return PLAIN_MAGIC + md5(payload) + payload


def _open_plain(frame: bytes) -> bytes:
    if len(frame) < 20 or frame[:4] != PLAIN_MAGIC:
        raise IntegrityError("not a plain PDAgent frame")
    tag, payload = frame[4:20], frame[20:]
    if md5(payload) != tag:
        raise IntegrityError("MD5 verification failed")
    return payload
