"""Tests for the security substrate: MD5 vs hashlib, RSA, envelope, keys."""

import contextlib
import hashlib
import math
import random
import signal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import (
    MD5,
    CryptoError,
    IntegrityError,
    KeyRing,
    KeyVault,
    decrypt_int,
    derive_dispatch_key,
    encrypt_int,
    generate_keypair,
    is_probable_prime,
    keystream,
    md5,
    md5_hex,
    open_envelope,
    seal,
    validate_dispatch_key,
)
from repro.crypto import rsa
from repro.crypto.rsa import _strong_lucas_probable_prime, _strong_probable_prime


# Shared deterministic keypair (keygen is the slow part).
KEYPAIR = generate_keypair(512, seed=1234)


def _rng_bytes():
    rng = random.Random(99)
    return lambda n: bytes(rng.randrange(256) for _ in range(n))


def _open_cold(frame, key):
    """``open_envelope`` with ``encrypt_int``'s plaintext memo emptied.

    ``seal`` records the session-key block it encrypts, so opening its frame
    right away would never run the CRT decryption; this does.
    """
    with mock.patch.dict(rsa._PLAINTEXTS, clear=True):
        return open_envelope(frame, key)


class TestMD5:
    RFC_VECTORS = {
        b"": "d41d8cd98f00b204e9800998ecf8427e",
        b"a": "0cc175b9c0f1b6a831c399e269772661",
        b"abc": "900150983cd24fb0d6963f7d28e17f72",
        b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
        b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
    }

    def test_rfc1321_vectors(self):
        for data, expected in self.RFC_VECTORS.items():
            assert md5_hex(data) == expected

    def test_block_boundaries(self):
        for n in (55, 56, 57, 63, 64, 65, 127, 128, 129):
            data = b"x" * n
            assert md5(data) == hashlib.md5(data).digest()

    def test_incremental_equals_oneshot(self):
        h = MD5()
        h.update(b"hello ")
        h.update(b"world")
        assert h.digest() == md5(b"hello world")

    def test_digest_does_not_finalise(self):
        h = MD5(b"abc")
        first = h.digest()
        assert h.digest() == first
        h.update(b"def")
        assert h.digest() == md5(b"abcdef")

    def test_copy_is_independent(self):
        h = MD5(b"abc")
        clone = h.copy()
        h.update(b"x")
        assert clone.digest() == md5(b"abc")

    def test_update_type_check(self):
        with pytest.raises(TypeError):
            MD5().update("text")

    @given(st.binary(max_size=2000))
    @settings(max_examples=100, deadline=None)
    def test_matches_hashlib(self, data):
        assert md5(data) == hashlib.md5(data).digest()


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 97, 101, 65537):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 91, 561, 65536):
            assert not is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        # strong pseudoprime traps for weak tests
        for c in (561, 1105, 1729, 2465, 6601):
            assert not is_probable_prime(c)

    def test_large_known_prime(self):
        assert is_probable_prime(2**127 - 1)  # Mersenne

    def test_large_known_composite(self):
        assert not is_probable_prime(2**128 - 1)

    def test_composites_past_trial_division(self):
        # Every composite above has a factor <= 149, so trial division
        # rejects it before Miller-Rabin runs.  These have none.
        k = 10**20 + 8960
        for c in (
            # Carmichael numbers, the first a product of three primes
            56_052_361, 118_901_521, 172_947_529, 216_821_881,
            # a 210-bit Chernick Carmichael number
            (6 * k + 1) * (12 * k + 1) * (18 * k + 1),
            # strong pseudoprimes to base 2; the last also to the bases 3..23
            49_141, 90_751, 3_825_123_056_546_413_051,
            # strong Lucas pseudoprimes (Selfridge parameters)
            40_309, 75_077,
        ):
            assert all(c % p for p in range(2, 150)), c
            assert not is_probable_prime(c), c


_REFERENCE_SMALL_PRIMES = [p for p in range(2, 150) if all(p % q for q in range(2, p))]


def _reference_is_probable_prime(n, rounds=40, rng=None):
    """The plain ``rounds``-round Miller-Rabin loop, kept as the reference.

    ``is_probable_prime`` must give this loop's verdict and draw the same
    witnesses from ``rng`` on every input but a Baillie-PSW pseudoprime:
    key generation shares ``rng`` with the candidates, so a single extra
    or missing draw changes every key that follows.
    """
    if n < 2:
        return False
    for p in _REFERENCE_SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng or random.Random(n)
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _ScriptedRandom(random.Random):
    """A ``random.Random`` whose ``randrange`` returns scripted values first."""

    def __new__(cls, seed, script):
        # Python 3.10's Random.__new__ rejects any argument but the seed.
        return super().__new__(cls, seed)

    def __init__(self, seed, script):
        super().__init__(seed)
        self.script = list(script)
        self.scripted_draws = 0

    def randrange(self, *args):
        if self.scripted_draws < len(self.script):
            self.scripted_draws += 1
            return self.script[self.scripted_draws - 1]
        return super().randrange(*args)


@contextlib.contextmanager
def _time_limit(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no verdict within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_matches_reference(n, rng, reference_rng):
    verdict = is_probable_prime(n, rng=rng)
    assert verdict == _reference_is_probable_prime(n, rng=reference_rng), n
    assert rng.getstate() == reference_rng.getstate(), n
    return verdict


class TestMillerRabinContract:
    """Same verdict and same witness draws as the reference loop."""

    def test_every_n_below_20000(self):
        for n in range(20_000):
            _assert_matches_reference(n, random.Random(n), random.Random(n))
            assert is_probable_prime(n) == _reference_is_probable_prime(n), n

    def test_key_generator_candidates(self):
        # 256-bit candidates in the order a 512-bit key's generator draws
        # them from its own stream, primes and composites alike.
        for seed in range(4):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            primes = 0
            while primes < 6:
                candidate = rng.getrandbits(256) | (1 << 255) | 1
                reference_rng.getrandbits(256)
                primes += _assert_matches_reference(candidate, rng, reference_rng)

    def test_products_of_two_128_bit_primes(self):
        keys = [generate_keypair(256, seed=s) for s in range(6)]
        primes = [k.p for k in keys] + [k.q for k in keys]
        assert all(p.bit_length() == 128 for p in primes)
        for i, p in enumerate(primes):
            for q in primes[i:]:
                _assert_matches_reference(p * q, random.Random(p ^ q), random.Random(p ^ q))

    @pytest.mark.parametrize(
        "n, first_witness",
        [
            (49_141, 2),  # 157 * 313: passes base 2, fails strong Lucas
            (40_309, 5270),  # 173 * 233: strong Lucas pseudoprime, 5270 a liar
            (3_825_123_056_546_413_051, 2),  # passes every prime base to 23
            (1093**2, 2),  # Wieferich squares: base 2 is a strong liar
            (3511**2, 2),
        ],
    )
    def test_scripted_first_witness(self, n, first_witness):
        # The squares reach the Lucas parameter search, which finds no
        # D with Jacobi symbol -1 for a square: bound the run.
        rng = _ScriptedRandom(n, [first_witness])
        reference_rng = _ScriptedRandom(n, [first_witness])
        with _time_limit(2):
            assert not _assert_matches_reference(n, rng, reference_rng)
        assert rng.scripted_draws == reference_rng.scripted_draws == 1


def _sieve(limit):
    """``is_prime[n]`` for every ``n < limit`` (sieve of Eratosthenes)."""
    is_prime = bytearray([1]) * limit
    is_prime[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return is_prime


class TestBailliePSW:
    # OEIS A217255: the strong Lucas pseudoprimes for Selfridge's method A
    # parameters, every term below 200,000.
    A217255 = [
        5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519,
        75077, 97439, 100127, 113573, 115639, 130139, 155819, 158399, 161027,
        162133, 176399, 176471, 189419, 192509, 197801,
    ]

    def test_strong_lucas_pseudoprimes_match_oeis(self):
        is_prime = _sieve(200_000)
        accepted = [
            n
            for n in range(3, 200_000, 2)
            if not is_prime[n] and _strong_lucas_probable_prime(n)
        ]
        assert accepted == self.A217255

    def test_matches_a_sieve_to_one_million(self):
        # Every odd n past trial division's primes, up to 10^6.
        is_prime = _sieve(10**6 + 1)
        wrong = [
            n
            for n in range(151, 10**6 + 1, 2)
            if (_strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n))
            != bool(is_prime[n])
        ]
        assert wrong == []

    def test_square_of_a_large_prime(self):
        # No D has Jacobi symbol -1 modulo a square, and the first with
        # symbol 0 is +-p: without the square check the search runs ~p/2 steps.
        p = generate_keypair(256, seed=0).p
        with _time_limit(2):
            assert not _strong_lucas_probable_prime(p * p)


class TestKeyDigest:
    # sha256 over (n, e, d, p, q) of every key below.  A changed verdict or
    # witness draw count on any candidate moves it.
    DIGEST = "c1a87dae849ce1fc610d0b5fe24aaf52a1333f05b1cf14ac53de70f104d5bb96"

    def test_keys_unchanged(self):
        keys = [
            generate_keypair(bits, seed=seed)
            for bits in (128, 256, 512)
            for seed in range(20)
        ]
        keys += [
            KeyVault(seed=s).keypair(f"gw-{i}") for s in range(5) for i in range(3)
        ]
        h = hashlib.sha256()
        for k in keys:
            h.update(f"{k.n},{k.e},{k.d},{k.p},{k.q};".encode())
        assert h.hexdigest() == self.DIGEST


class TestRSA:
    def test_key_structure(self):
        kp = KEYPAIR
        assert kp.n == kp.p * kp.q
        assert kp.public.n == kp.n
        assert kp.n.bit_length() == 512

    def test_deterministic_generation(self):
        assert generate_keypair(256, seed=5) == generate_keypair(256, seed=5)

    def test_different_seeds_differ(self):
        assert generate_keypair(256, seed=5) != generate_keypair(256, seed=6)

    def test_encrypt_decrypt_roundtrip(self):
        m = 123456789
        assert decrypt_int(encrypt_int(m, KEYPAIR.public), KEYPAIR) == m

    def test_crt_decrypts_a_ciphertext_encrypt_int_never_built(self):
        # Emptied: an earlier test may have encrypted one of these plaintexts.
        with mock.patch.dict(rsa._PLAINTEXTS, clear=True):
            for m in (0, 1, 123456789, KEYPAIR.n - 1, KEYPAIR.n // 3):
                c = pow(m, KEYPAIR.e, KEYPAIR.n)  # not through encrypt_int
                assert decrypt_int(c, KEYPAIR) == m

    def test_plaintext_out_of_range(self):
        with pytest.raises(CryptoError):
            encrypt_int(KEYPAIR.n, KEYPAIR.public)
        with pytest.raises(CryptoError):
            encrypt_int(-1, KEYPAIR.public)

    def test_small_modulus_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(32)

    def test_fingerprint_stable(self):
        assert KEYPAIR.public.fingerprint() == KEYPAIR.public.fingerprint()
        other = generate_keypair(256, seed=8)
        assert KEYPAIR.public.fingerprint() != other.public.fingerprint()


class TestPlaintextMemo:
    """``decrypt_int`` answers the blocks ``encrypt_int`` built by lookup."""

    @pytest.fixture
    def crt(self, monkeypatch):
        """Ciphertexts that reached the CRT decryption."""
        calls = []

        def counted(c, key):
            calls.append(c)
            return real(c, key)

        real = rsa._crt_decrypt
        monkeypatch.setattr(rsa, "_crt_decrypt", counted)
        return calls

    def test_hit_returns_the_plaintext_without_the_crt(self, crt):
        m = 987654321
        assert decrypt_int(encrypt_int(m, KEYPAIR.public), KEYPAIR) == m
        assert crt == []

    def test_block_pushed_out_by_the_bound_is_decrypted(self, crt, monkeypatch):
        monkeypatch.setattr(rsa, "_PLAINTEXTS", {})
        monkeypatch.setattr(rsa, "_PLAINTEXTS_MAX", 2)
        blocks = [encrypt_int(m, KEYPAIR.public) for m in (11, 12, 13)]
        assert decrypt_int(blocks[2], KEYPAIR) == 13
        assert crt == []
        assert decrypt_int(blocks[0], KEYPAIR) == 11
        assert crt == [blocks[0]]

    def test_lookup_is_per_key(self, crt):
        other = generate_keypair(512, seed=777)
        c = encrypt_int(424242, KEYPAIR.public)
        assert c < other.n
        assert decrypt_int(c, other) == pow(c, other.d, other.n)
        assert crt == [c]


class TestEnvelope:
    def test_roundtrip(self):
        rng = _rng_bytes()
        pt = b"<pi>the user's transactions</pi>" * 20
        assert _open_cold(seal(pt, KEYPAIR.public, rng), KEYPAIR) == pt

    def test_empty_plaintext(self):
        rng = _rng_bytes()
        assert _open_cold(seal(b"", KEYPAIR.public, rng), KEYPAIR) == b""

    def test_tampered_ciphertext_fails_integrity(self):
        rng = _rng_bytes()
        frame = bytearray(seal(b"data" * 50, KEYPAIR.public, rng))
        frame[-1] ^= 0x01
        with pytest.raises(IntegrityError):
            open_envelope(bytes(frame), KEYPAIR)

    def test_tampered_header_fails(self):
        rng = _rng_bytes()
        frame = bytearray(seal(b"data" * 50, KEYPAIR.public, rng))
        frame[10] ^= 0x01
        with pytest.raises((IntegrityError, CryptoError)):
            open_envelope(bytes(frame), KEYPAIR)

    def test_truncated_frame_rejected(self):
        rng = _rng_bytes()
        frame = seal(b"data", KEYPAIR.public, rng)
        with pytest.raises(CryptoError):
            open_envelope(frame[:10], KEYPAIR)

    def test_bad_magic_rejected(self):
        with pytest.raises(CryptoError):
            open_envelope(b"NOPE" + b"\x00" * 100, KEYPAIR)

    def test_wrong_key_fails(self):
        rng = _rng_bytes()
        other = generate_keypair(512, seed=777)
        frame = seal(b"secret" * 30, KEYPAIR.public, rng)
        block = int.from_bytes(frame[6 : 6 + KEYPAIR.public.byte_size], "big")
        assert (KEYPAIR.n, KEYPAIR.e, block) in rsa._PLAINTEXTS  # memo holds it
        with pytest.raises(CryptoError):
            open_envelope(frame, other)

    def test_keystream_deterministic(self):
        assert keystream(b"k" * 16, 100) == keystream(b"k" * 16, 100)
        assert keystream(b"k" * 16, 100) != keystream(b"j" * 16, 100)

    def test_distinct_seals_differ(self):
        rng = _rng_bytes()
        a = seal(b"same", KEYPAIR.public, rng)
        b = seal(b"same", KEYPAIR.public, rng)
        assert a != b  # fresh session key each time

    @given(st.binary(max_size=1500))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, pt):
        rng = _rng_bytes()
        assert _open_cold(seal(pt, KEYPAIR.public, rng), KEYPAIR) == pt


class TestKeyRegistries:
    def test_keyring_add_get(self):
        ring = KeyRing()
        ring.add("gw-0", KEYPAIR.public)
        assert ring.get("gw-0") == KEYPAIR.public
        assert ring.knows("gw-0")
        assert not ring.knows("gw-1")

    def test_keyring_conflict_raises(self):
        ring = KeyRing()
        ring.add("gw-0", KEYPAIR.public)
        other = generate_keypair(256, seed=3).public
        with pytest.raises(CryptoError):
            ring.add("gw-0", other)

    def test_keyring_idempotent_add(self):
        ring = KeyRing()
        ring.add("gw-0", KEYPAIR.public)
        ring.add("gw-0", KEYPAIR.public)
        assert len(ring) == 1

    def test_keyring_unknown_raises(self):
        with pytest.raises(CryptoError):
            KeyRing().get("missing")

    def test_vault_stable_per_address(self):
        vault = KeyVault(bits=256, seed=1)
        assert vault.keypair("gw-0") is vault.keypair("gw-0")
        assert vault.public_key("gw-0") != vault.public_key("gw-1")

    def test_vault_reproducible_across_instances(self):
        a = KeyVault(bits=256, seed=9).public_key("gw-x")
        b = KeyVault(bits=256, seed=9).public_key("gw-x")
        assert a == b


class TestDispatchKeys:
    def test_derive_and_validate(self):
        key = derive_dispatch_key("mac-1", "pda", "n1")
        assert validate_dispatch_key(key, "mac-1", "pda", "n1")

    def test_wrong_fields_fail(self):
        key = derive_dispatch_key("mac-1", "pda", "n1")
        assert not validate_dispatch_key(key, "mac-2", "pda", "n1")
        assert not validate_dispatch_key(key, "mac-1", "other", "n1")
        assert not validate_dispatch_key(key, "mac-1", "pda", "n2")

    def test_empty_fields_raise(self):
        with pytest.raises(ValueError):
            derive_dispatch_key("", "pda", "n")
        assert not validate_dispatch_key("k", "", "pda", "n")

    def test_key_is_hex_md5(self):
        key = derive_dispatch_key("a", "b", "c")
        assert len(key) == 32
        int(key, 16)  # parses as hex
