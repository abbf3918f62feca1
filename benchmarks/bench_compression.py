"""Ablation A2 — PI compression codec vs wire size and upload time.

The paper: the XML document "is compressed within the wireless devices
before being transferred to the gateway.  This minimizes the size of the
transferred packet and thus reduces the transmission time."  Turning
compression off (null codec) must visibly inflate both.
"""

from repro.compressor import get_codec
from repro.experiments.ablations import run_codec_ablation
from repro.experiments.report import format_table


def test_codec_ablation(benchmark, emit):
    rows = benchmark.pedantic(
        run_codec_ablation, kwargs={"seed": 7, "n_txns": 8}, rounds=1, iterations=1
    )
    emit(
        format_table(
            ["codec", "PI wire bytes", "upload (s)", "completion (s)"],
            [[r.codec, r.pi_wire_bytes, r.upload_time, r.completion_time] for r in rows],
            title="Ablation A2: PI compression codec (8-transaction batch)",
        )
    )
    by_codec = {r.codec: r for r in rows}
    assert by_codec["lzss"].pi_wire_bytes < by_codec["huffman"].pi_wire_bytes
    assert by_codec["huffman"].pi_wire_bytes < by_codec["null"].pi_wire_bytes
    # smaller PI -> faster upload over the wireless link
    assert by_codec["lzss"].upload_time < by_codec["null"].upload_time


def _pi_corpus():
    """A representative PI XML document (what the device compresses)."""
    from repro.core.packed_info import write_pi
    from repro.core import PIContent
    from repro.crypto import derive_dispatch_key
    from repro.apps.ebanking import make_transactions

    content = PIContent(
        code_id="mac-000001",
        device_id="pda",
        service="ebanking",
        agent_class="EBankingAgent",
        dispatch_key=derive_dispatch_key("mac-000001", "pda", "n"),
        nonce="n",
        params={"transactions": make_transactions(["bank-a", "bank-b"], 8)},
        code_body="EBankingAgent;" * 200,
    )
    return write_pi(content)


def test_lzss_throughput_on_pi(benchmark):
    corpus = _pi_corpus()
    body = benchmark(get_codec("lzss").encode, corpus)
    assert len(body) < len(corpus) / 2


def test_huffman_throughput_on_pi(benchmark):
    corpus = _pi_corpus()
    body = benchmark(get_codec("huffman").encode, corpus)
    assert len(body) < len(corpus)


def test_lzss_decode_throughput_on_pi(benchmark):
    corpus = _pi_corpus()
    codec = get_codec("lzss")
    assert benchmark(codec.decode, codec.encode(corpus), len(corpus)) == corpus


def test_huffman_decode_throughput_on_pi(benchmark):
    corpus = _pi_corpus()
    codec = get_codec("huffman")
    assert benchmark(codec.decode, codec.encode(corpus), len(corpus)) == corpus
