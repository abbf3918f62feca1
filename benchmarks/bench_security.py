"""Ablation A3 — §3.4 security on/off: PI size and device CPU overhead.

Encryption costs a bounded wire overhead (RSA session-key block + header vs
a bare MD5 tag) and extra device CPU; the end-to-end completion time must
stay the same order — security is affordable, which is why the paper ships
it on by default.
"""

import random
from unittest import mock

from repro.crypto import KeyVault, generate_keypair, open_envelope, rsa, seal
from repro.experiments.ablations import run_security_ablation
from repro.experiments.report import format_table

KEYPAIR = generate_keypair(512, seed=42)


def test_security_ablation(benchmark, emit):
    rows = benchmark.pedantic(
        run_security_ablation, kwargs={"seed": 7, "n_txns": 8}, rounds=1, iterations=1
    )
    emit(
        format_table(
            ["encrypted", "PI wire bytes", "completion (s)", "device CPU (s)"],
            [
                [r.encrypted, r.pi_wire_bytes, r.completion_time, r.device_cpu_seconds]
                for r in rows
            ],
            title="Ablation A3: PI encryption on/off (8-transaction batch)",
        )
    )
    enc = next(r for r in rows if r.encrypted)
    plain = next(r for r in rows if not r.encrypted)
    overhead_bytes = enc.pi_wire_bytes - plain.pi_wire_bytes
    assert 0 < overhead_bytes < 300
    assert enc.device_cpu_seconds > plain.device_cpu_seconds
    # security must not dominate completion time
    assert enc.completion_time < plain.completion_time * 1.5


def _rng_bytes():
    rng = random.Random(7)
    return lambda n: bytes(rng.randrange(256) for _ in range(n))


def test_seal_throughput(benchmark):
    payload = b"<pi>transactions</pi>" * 100
    rng = _rng_bytes()
    frame = benchmark(seal, payload, KEYPAIR.public, rng)
    assert len(frame) > len(payload)


def test_open_throughput(benchmark):
    payload = b"<pi>transactions</pi>" * 100
    frame = seal(payload, KEYPAIR.public, _rng_bytes())
    # Open with the plaintext memo emptied, so each open runs the CRT
    # decryption: both this seal and test_seal_throughput's record the block.
    with mock.patch.dict(rsa._PLAINTEXTS, clear=True):
        out = benchmark(open_envelope, frame, KEYPAIR)
    assert out == payload


def test_keygen_cost(benchmark):
    """RSA keygen is the one heavyweight crypto op (done once per gateway)."""
    vault = [0]

    def gen():
        vault[0] += 1
        return KeyVault(bits=512, seed=vault[0]).keypair("gw")

    kp = benchmark.pedantic(gen, rounds=3, iterations=1)
    assert kp.n.bit_length() == 512
