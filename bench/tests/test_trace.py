"""The tracing shim: install/uninstall round trip and span arithmetic."""

import json
import sys
import threading
import types

import repro.chain.transaction
import repro.core.protocol
import repro.crypto
import repro.crypto.keccak
from repro.chain.transaction import Transaction
from repro.crypto import rlp
from repro.crypto.keys import PrivateKey
from repro.evm.vm import EVM

from bench.trace import ENTRY_POINTS, Tracer, summarise

KECCAK_IMPORTERS = (repro.crypto.keccak, repro.crypto,
                    repro.chain.transaction, repro.core.protocol)


def test_install_rebinds_and_uninstall_restores_every_importer():
    original = repro.crypto.keccak.keccak256
    descriptors = {attr: Transaction.__dict__[attr]
                   for attr in ("hash", "sender", "signing_hash")}
    execute = EVM.execute
    tracer = Tracer()
    tracer.install()
    try:
        for module in KECCAK_IMPORTERS:
            assert module.keccak256 is not original
            assert module.keccak256.__wrapped__ is original
        assert EVM.execute is not execute
        for attr, descriptor in descriptors.items():
            assert type(Transaction.__dict__[attr]) is type(descriptor)
            assert Transaction.__dict__[attr] is not descriptor
        # A module first imported while the shim is installed
        # from-imports the wrapper, not the original.
        late = types.ModuleType("repro._bench_late_importer")
        late.keccak256 = repro.crypto.keccak.keccak256
        sys.modules[late.__name__] = late
    finally:
        tracer.uninstall()
        sys.modules.pop("repro._bench_late_importer", None)
    for module in KECCAK_IMPORTERS + (late,):
        assert module.keccak256 is original
    assert EVM.execute is execute
    for attr, descriptor in descriptors.items():
        assert Transaction.__dict__[attr] is descriptor


def test_every_entry_point_exists():
    tracer = Tracer()
    tracer.install()  # raises on a stale table entry
    tracer.uninstall()
    assert len({(m, p) for m, p, __ in ENTRY_POINTS}) == len(ENTRY_POINTS)


def test_self_times_of_nested_spans_sum_to_the_root():
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("b", 20, 30, 1, 0),
        ("a", 50, 70, 0, 0),
        ("other-root", 200, 230, -1, 0),
    ]
    summary = summarise(spans, root="root")
    assert summary["root"] == {"calls": 1, "total_ns": 100, "self_ns": 50}
    assert summary["a"] == {"calls": 2, "total_ns": 50, "self_ns": 40}
    assert summary["b"] == {"calls": 1, "total_ns": 10, "self_ns": 10}
    assert "other-root" not in summary
    assert sum(entry["self_ns"] for entry in summary.values()) == 100
    assert summarise(spans)["other-root"]["self_ns"] == 30


def test_traced_calls_nest_under_the_open_span(tmp_path):
    key = PrivateKey.from_seed("bench-test")
    tracer = Tracer()
    tracer.install()
    try:
        tracer.tag = 7
        token = tracer.open("bench.run")
        tx = Transaction.create_signed(key, nonce=0, to=None, value=0,
                                       data=b"\x01" * 300)
        tx.hash
        tx.hash  # cached: no second span
        rlp.encode([[b"a", [b"b"]], b"c"])  # recursive: one span
        tracer.close(token)
    finally:
        tracer.uninstall()
    summary = summarise(tracer.spans, root="bench.run")
    assert sum(e["self_ns"] for e in summary.values()) == \
        summary["bench.run"]["total_ns"]
    # create_signed, its signing_hash, and hash.
    assert summary["chain.tx_sign_hash"]["calls"] == 3
    assert summary["crypto.sign"]["calls"] == 1
    assert summary["crypto.keccak"]["calls"] >= 2
    # signing payload, wire encoding, and the explicit call.
    assert summary["crypto.rlp"]["calls"] == 3
    assert tracer.keccak_bytes > 600
    assert all(span[4] == 7 for span in tracer.spans)

    path = tmp_path / "trace.jsonl"
    tracer.write(path)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["id"] for row in rows] == list(range(len(tracer.spans)))
    assert rows[0]["name"] == "bench.run" and rows[0]["parent"] == -1
    assert {row["layer"] for row in rows} == {"bench", "chain", "crypto"}
    assert all(rows[row["parent"]]["start_ns"] <= row["start_ns"]
               for row in rows[1:])


def test_rehashed_bytes_count_exact_repeats_only():
    tracer = Tracer()
    tracer.install()
    try:
        hash_ = repro.crypto.keccak.keccak256
        hash_(b"x" * 200)
        hash_(b"x" * 200)
        hash_(bytearray(b"y" * 50))
    finally:
        tracer.uninstall()
    assert tracer.keccak_bytes == 450
    assert tracer.keccak_rehashed_bytes == 200


def test_other_threads_pass_through_untraced():
    tracer = Tracer()
    tracer.install()
    try:
        worker = threading.Thread(
            target=lambda: repro.crypto.keccak.keccak256(b"elsewhere"))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    finally:
        tracer.uninstall()
    assert tracer.spans == []
