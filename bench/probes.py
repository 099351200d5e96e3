"""Fixed-input probes of single layers.

Each probe times one public operation on inputs that do not depend on
the run seed and returns the median over a few batches.  Inputs are
distinct within a probe so the memo caches in ``repro.crypto`` cannot
serve them.  Probes say how fast a layer is in isolation; whether that
matters end to end is what the workloads and the trace are for.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from statistics import median

from repro.apps.betting import BETTING_SOURCE
from repro.chain.state import WorldState
from repro.crypto import ecdsa
from repro.crypto.keccak import keccak256
from repro.crypto.keys import Address, PrivateKey, recover_address
from repro.evm.assembler import Program
from repro.evm.vm import EVM, BlockContext, Message
from repro.lang import compile_source
from repro.net.wire import Command, encode_frame
from repro.storage import KVStore

BATCHES = 5
LOOP_ITERATIONS = 20_000


def _median_seconds(batch) -> float:
    """Median wall time of ``BATCHES`` calls of ``batch(index)``."""
    samples = []
    for index in range(BATCHES):
        started = time.perf_counter()
        batch(index)
        samples.append(time.perf_counter() - started)
    return median(samples)


def _digests(batch: int, size: int) -> list:
    return [keccak256(b"probe-%d-%d" % (batch, i)) for i in range(size)]


def _crypto() -> dict:
    blocks = [[bytes([b, i]) * 512 for i in range(64)]
              for b in range(BATCHES)]
    keccak_s = _median_seconds(
        lambda b: [keccak256(block) for block in blocks[b]])

    key = PrivateKey.from_seed("probe-key")
    secret = key.secret
    sign_s = _median_seconds(
        lambda b: [ecdsa.sign(d, secret) for d in _digests(b, 16)])
    signed = [[(d, ecdsa.sign(d, secret)) for d in _digests(100 + b, 16)]
              for b in range(BATCHES)]
    recover_s = _median_seconds(
        lambda b: [recover_address(d, s) for d, s in signed[b]])
    return {
        "crypto.keccak_1kib_mb_per_s": 64 * 1024 / keccak_s / 1e6,
        "crypto.sign_us": sign_s / 16 * 1e6,
        "crypto.recover_us": recover_s / 16 * 1e6,
    }


def _evm_loop_mops(jit: bool) -> float:
    program = Program()
    program.push(LOOP_ITERATIONS, width=4)
    program.label("top")
    program.push(1).op("SWAP1").op("SUB")
    program.op("DUP1")
    program.jumpi_to("top")
    program.op("STOP")
    caller = Address.from_hex("0x" + "11" * 20)
    contract = Address.from_hex("0x" + "22" * 20)
    state = WorldState()
    state.set_balance(caller, 10**21)
    state.set_code(contract, program.assemble())
    evm = EVM(state, BlockContext(
        coinbase=Address.from_hex("0x" + "33" * 20),
        timestamp=1_700_000_000, number=1), jit=jit)

    def run(__=None):
        result = evm.execute(Message(
            sender=caller, to=contract, value=0, data=b"",
            gas=10_000_000, origin=caller))
        if not result.success:
            raise RuntimeError(f"probe loop failed: {result.error}")

    # Past the JIT's warm-up threshold, so the compile is not timed.
    for __ in range(3):
        run()
    # PUSH1, SWAP1, SUB, DUP1, JUMPI, JUMPDEST per iteration.
    return LOOP_ITERATIONS * 6 / _median_seconds(run) / 1e6


def _wire() -> dict:
    key = PrivateKey.from_seed("probe-client")
    payload = {"to": "0x" + "ab" * 20, "data": "0x" + "cd" * 100}

    def frames(batch):
        for seq in range(200):
            wire = Command(channel="probe", seq=seq, kind="chain.send",
                           payload=payload, sender=key.address.hex,
                           signature="0x" + "00" * 65).to_wire()
            Command.from_wire(json.loads(encode_frame(wire)[4:]))

    def sign_verify(batch):
        for seq in range(8):
            Command(channel="probe", seq=batch * 8 + seq,
                    kind="chain.send", payload=payload
                    ).signed(key).verify()

    return {
        "net.wire.frame_us": _median_seconds(frames) / 200 * 1e6,
        "net.wire.sign_verify_us": _median_seconds(sign_verify) / 8 * 1e6,
    }


def _storage(directory: Path) -> dict:
    shutil.rmtree(directory, ignore_errors=True)
    store = KVStore(directory)
    try:
        value = b"v" * 200

        def appends(batch):
            for i in range(500):
                store.put(b"probe", b"%d-%d" % (batch, i), value)

        append_s = _median_seconds(appends)

        def commit(batch):
            store.put(b"probe", b"commit-%d" % batch, value)
            store.commit()

        store.commit()
        commit_s = _median_seconds(commit)
        get_s = _median_seconds(
            lambda batch: [store.get(b"probe", b"%d-%d" % (batch, i))
                           for i in range(500)])
    finally:
        store.close()
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "storage.wal_append_us": append_s / 500 * 1e6,
        "storage.commit_fsync_ms": commit_s * 1e3,
        "storage.kv_get_us": get_s / 500 * 1e6,
    }


def run_probes(scratch: Path) -> dict:
    """Every probe metric; ``scratch`` is a directory to create and
    remove for the storage probes."""
    return {
        **_crypto(),
        "evm.loop_mops_per_s": _evm_loop_mops(jit=True),
        "evm.loop_nojit_mops_per_s": _evm_loop_mops(jit=False),
        # A trailing comment per batch defeats compile_source's memo.
        "lang.compile_betting_ms": _median_seconds(
            lambda batch: compile_source(
                BETTING_SOURCE + f"// probe {batch}\n")) * 1e3,
        **_wire(),
        **_storage(scratch),
    }
