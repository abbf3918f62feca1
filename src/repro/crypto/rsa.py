"""Textbook RSA with Miller–Rabin key generation.

PDAgent's §3.4 security model: the device encrypts the Packed Information
with the gateway's *public* key; the gateway decrypts with its private key.
This module provides the asymmetric primitive; :mod:`repro.crypto.envelope`
builds the hybrid scheme actually used on PI payloads.

Key generation draws its candidates and its Miller–Rabin witnesses from one
seeded ``random.Random``, so a key depends on every candidate's verdict
*and* on how many witnesses each candidate drew.  ``is_probable_prime``
returns the same verdict and makes the same draws as the plain
``rounds``-round Miller–Rabin loop on every input except a Baillie–PSW
pseudoprime (none is known, and none exists below 2^64): after the first
round it settles the candidate with a Baillie–PSW check and, on a pass,
draws the remaining witnesses without testing them.  Seeded keys are
therefore the ones the plain loop produces.

This is a **protocol model**, not production cryptography: default keys are
512 bits, padding is a simple random prefix (not OAEP), and no blinding is
performed.  That is faithful to the paper's scope ("implementing a
comprehensive security service is beyond the scope of this paper") while
letting the benchmarks measure the real byte and CPU overheads the design
pays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import CryptoError

__all__ = [
    "PublicKey",
    "PrivateKey",
    "generate_keypair",
    "is_probable_prime",
    "encrypt_int",
    "decrypt_int",
]

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]
_DEFAULT_E = 65537


def is_probable_prime(n: int, rounds: int = 40, rng: random.Random | None = None) -> bool:
    """Miller–Rabin primality test with ``rounds`` random witnesses.

    Contract: the verdict, and the witnesses drawn from ``rng``, are those
    of running all ``rounds`` rounds (a composite stops drawing at its
    first witness of compositeness), on every ``n`` except a Baillie–PSW
    pseudoprime that passes the first round, which is called prime.  Once
    the first round passes, a Baillie–PSW check (a strong base-2 round and
    a strong Lucas test) decides: a prime never fails a round, so on a pass
    the remaining ``rounds - 1`` witnesses are drawn and not tested; on a
    fail the remaining rounds run as usual.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Deterministic default witness stream: seeding from ``n`` keeps the
    # test a pure function of its input (an unseeded Random() would make
    # repeat calls draw different witnesses, breaking run replayability).
    rng = rng or random.Random(n)
    for i in range(rounds):
        if not _strong_probable_prime(n, rng.randrange(2, n - 1)):
            return False
        if i == 0 and _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n):
            for _ in range(rounds - 1):
                rng.randrange(2, n - 1)
            return True
    return True


def _strong_probable_prime(n: int, a: int) -> bool:
    """One Miller–Rabin round: is odd ``n`` a strong probable prime to base ``a``?"""
    # Write n-1 = d * 2^r with d odd.
    m = n - 1
    r = (m & -m).bit_length() - 1
    d = m >> r
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test of odd ``n`` > 2 with Selfridge's method A parameters."""
    # No D has Jacobi symbol -1 modulo a square, so the search below would
    # only end at a D sharing a factor with n: up to sqrt(n) steps.
    if math.isqrt(n) ** 2 == n:
        return False
    # D = 5, -7, 9, -11, ... until (D/n) = -1; P = 1, Q = (1 - D) / 4.
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    # Write n+1 = d * 2^s with d odd; walk d's bits from the top computing
    # U_k, V_k and Q^k (mod n), starting from U_1 = V_1 = P = 1.
    m = n + 1
    s = (m & -m).bit_length() - 1
    d = m >> s
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        # k -> 2k: U_2k = U_k V_k, V_2k = V_k^2 - 2 Q^k.
        U = U * V % n
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            # k -> k+1: U_k+1 = (U_k + V_k) / 2, V_k+1 = (D U_k + V_k) / 2.
            U, V = (U + V) % n, (D * U + V) % n
            if U & 1:
                U += n
            if V & 1:
                V += n
            U >>= 1
            V >>= 1
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    # V_2k = V_k^2 - 2 Q^k for k = d*2, ..., d*2^(s-1).
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive ``n``."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _random_prime(bits: int, rng: random.Random) -> int:
    """Random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size must be >= 8 bits")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force top bit and oddness
        if is_probable_prime(candidate, rng=rng):
            return candidate


@dataclass(frozen=True)
class PublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    @property
    def byte_size(self) -> int:
        """Bytes needed to hold one ciphertext block."""
        return (self.bits + 7) // 8

    def fingerprint(self) -> str:
        """Short stable identifier used in traces and key registries."""
        from .md5 import md5_hex

        return md5_hex(f"{self.n}:{self.e}".encode())[:16]


@dataclass(frozen=True)
class PrivateKey:
    """RSA private key; carries the public part for convenience."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public(self) -> PublicKey:
        return PublicKey(self.n, self.e)


def generate_keypair(bits: int = 512, seed: int | None = None) -> PrivateKey:
    """Generate an RSA keypair with an ``bits``-bit modulus.

    ``seed`` makes generation deterministic (used by tests and by the
    simulator so every run uses identical keys).  Seeded generation is a
    pure function of ``(bits, seed)``, so repeat requests — every scenario
    build re-derives the same per-gateway keys — come from a memo instead
    of re-running Miller–Rabin; the keys are frozen dataclasses, safe to
    share.
    """
    if seed is not None:
        return _generate_keypair_seeded(bits, seed)
    return _generate_keypair(bits, None)


@lru_cache(maxsize=None)
def _generate_keypair_seeded(bits: int, seed: int) -> PrivateKey:
    return _generate_keypair(bits, seed)


def _generate_keypair(bits: int, seed: int | None) -> PrivateKey:
    if bits < 64:
        raise ValueError("modulus must be >= 64 bits")
    rng = random.Random(seed)
    half = bits // 2
    while True:
        p = _random_prime(half, rng)
        q = _random_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        e = _DEFAULT_E
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        return PrivateKey(n=n, e=e, d=d, p=p, q=q)


#: ``(n, e, c) -> m`` for the last ``_PLAINTEXTS_MAX`` blocks ``encrypt_int``
#: produced.  RSA permutes ``[0, n)``, so ``m`` is exactly what the private
#: key's holder recovers, and :func:`decrypt_int` returns it without the CRT.
_PLAINTEXTS: dict[tuple[int, int, int], int] = {}
_PLAINTEXTS_MAX = 8192


def encrypt_int(m: int, key: PublicKey) -> int:
    """Raw RSA: ``m^e mod n``.  ``m`` must be < n."""
    if not 0 <= m < key.n:
        raise CryptoError("plaintext integer out of range for this key")
    c = pow(m, key.e, key.n)
    _PLAINTEXTS[key.n, key.e, c] = m
    if len(_PLAINTEXTS) > _PLAINTEXTS_MAX:
        del _PLAINTEXTS[next(iter(_PLAINTEXTS))]
    return c


@lru_cache(maxsize=None)
def _crt_params(key: PrivateKey) -> tuple[int, int, int]:
    """Per-key CRT exponents/inverse (pure function of the frozen key)."""
    return key.d % (key.p - 1), key.d % (key.q - 1), pow(key.q, -1, key.p)


def decrypt_int(c: int, key: PrivateKey) -> int:
    """Raw RSA decryption: a memo lookup, else the CRT."""
    if not 0 <= c < key.n:
        raise CryptoError("ciphertext integer out of range for this key")
    m = _PLAINTEXTS.get((key.n, key.e, c))
    return _crt_decrypt(c, key) if m is None else m


def _crt_decrypt(c: int, key: PrivateKey) -> int:
    # CRT: m_p = c^(d mod p-1) mod p, m_q likewise, recombine.
    dp, dq, q_inv = _crt_params(key)
    m_p = pow(c % key.p, dp, key.p)
    m_q = pow(c % key.q, dq, key.q)
    h = (q_inv * (m_p - m_q)) % key.p
    return m_q + h * key.q
