#!/usr/bin/env python
"""Benchmark runner and perf-regression gate (stdlib only).

Runs a fixed battery of substrate and end-to-end benchmarks — the same
workloads as ``benchmarks/bench_*.py`` (EVM interpreter ops/s, Keccak,
ECDSA sign/recover, the Table II dispute path, the 100-session fleet)
— plus the adversarial dispute-path scenario (dispute gas under
Byzantine load) and the networked multi-process fleet (``repro node``
+ ``repro participant`` + engine over the wire protocol, reporting
sessions/s and RTT p50/p99) — under explicit warmup/repeat controls,
and writes a schema-versioned ``BENCH_<label>.json`` at the
repository root.

Beyond raw numbers the runner enforces two invariants:

1. **Telemetry gas invariance** — the dispute scenario is executed with
   telemetry off and on; the per-stage gas ledgers must be
   byte-identical and the profiler's opcode decomposition must equal
   the ledger total.  Divergence exits with status 2.
2. **Regression gate** — when a baseline is available (``--baseline``
   or the most recent other ``BENCH_*.json`` at the repo root),
   throughput metrics may not drop more than ``--threshold`` (default
   20%), and gas metrics must match exactly.  Violations exit with
   status 1 (throughput) or 2 (gas).

Usage::

    python tools/bench_runner.py                      # full run
    python tools/bench_runner.py --smoke              # CI smoke (small)
    python tools/bench_runner.py --label pr3 \
        --baseline /tmp/BENCH_pre.json                # explicit baseline

``--smoke`` shrinks workloads and skips the cross-file regression gate
(smoke sizes are not comparable with full-run sizes); the telemetry
invariance check always runs.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
for entry in (str(REPO / "src"), str(REPO)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

SCHEMA = "repro-bench/1"

#: unit -> how the comparison treats the metric.
#: "throughput": higher is better, gated by --threshold.
#: "exact": must be identical between runs (gas determinism).
_UNIT_KIND = {
    "ops/s": "throughput",
    "bytes/s": "throughput",
    "gas/s": "throughput",
    "sessions/s": "throughput",
    "gas": "exact",
    # Ratio-style units are reported for humans but never gated:
    # speedup and conflict rate depend on host core count, not code.
    "x": "info",
    "fraction": "info",
    # Latency percentiles: lower is better, so the throughput gate
    # would read an improvement as a regression — informational only.
    "seconds": "info",
}


def _best_of(fn, *, repeats: int, warmup: int):
    """Run ``fn`` warmup+repeats times; return (best_seconds, last_result)."""
    result = None
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


# ---------------------------------------------------------------------------
# Individual benchmarks.  Each returns {metric_name: {value, unit, ...}}.
# ---------------------------------------------------------------------------

def bench_keccak(cfg, repeats, warmup):
    from repro.crypto.keccak import keccak256

    blob = b"\xab" * 1024
    rounds = cfg["keccak_rounds"]

    def run():
        for _ in range(rounds):
            keccak256(blob)

    best, _ = _best_of(run, repeats=repeats, warmup=warmup)
    return {
        "keccak_1kib": {
            "value": rounds * len(blob) / best,
            "unit": "bytes/s",
            "wall_s": best,
            "note": "1 KiB blobs, pure-Python sponge (memo-exempt size)",
        },
    }


def bench_ecdsa(cfg, repeats, warmup):
    from repro.crypto.ecdsa import sign
    from repro.crypto.keccak import keccak256
    from repro.crypto.keys import PrivateKey, recover_address

    count = cfg["ecdsa_count"]
    keys = [PrivateKey.from_seed(f"bench-{i}") for i in range(count)]
    digests = [keccak256(b"bench digest %d" % i) for i in range(count)]
    signatures = [k.sign(d) for k, d in zip(keys, digests)]

    def run_sign():
        for digest, key in zip(digests, keys):
            sign(digest, key.secret)

    best_sign, _ = _best_of(run_sign, repeats=repeats, warmup=warmup)

    def run_recover_unique():
        # Defeat the (digest, v, r, s) memo: every item is distinct and
        # the cache is cleared up front, so this measures raw recovery.
        from repro.crypto import keys as keys_module
        clear = getattr(keys_module, "clear_recover_cache", None)
        if clear is not None:
            clear()
        for digest, signature in zip(digests, signatures):
            recover_address(digest, signature)

    best_unique, _ = _best_of(run_recover_unique,
                              repeats=repeats, warmup=warmup)

    def run_recover_pipeline():
        # One batch recovery of every sender through
        # recover_address_batch (shared Montgomery inversions), then a
        # second read of the same senders through the memo.
        from repro.crypto import keys as keys_module
        keys_module.clear_recover_cache()
        keys_module.recover_address_batch(list(zip(digests, signatures)))
        for digest, signature in zip(digests, signatures):
            recover_address(digest, signature)

    best_pipeline, _ = _best_of(run_recover_pipeline,
                                repeats=repeats, warmup=warmup)

    return {
        "ecdsa_sign": {
            "value": count / best_sign,
            "unit": "ops/s",
            "wall_s": best_sign,
            "note": "RFC-6979 deterministic signing",
        },
        "ecdsa_recover_unique": {
            "value": count / best_unique,
            "unit": "ops/s",
            "wall_s": best_unique,
            "note": "distinct (digest, sig) pairs; memo cleared",
        },
        "ecdsa_recover": {
            "value": 2 * count / best_pipeline,
            "unit": "ops/s",
            "wall_s": best_pipeline,
            "note": "admission+execution workload: one batch recovery "
                    "at admission, one memo hit at block processing "
                    "(2 logical lookups per signature)",
        },
    }


def _interpreter_loop_code(iterations: int) -> bytes:
    from repro.evm.assembler import Program

    program = Program()
    program.push(iterations, width=4)
    program.label("top")
    program.push(1).op("SWAP1").op("SUB")
    program.op("DUP1")
    program.jumpi_to("top")
    program.op("STOP")
    return program.assemble()


def bench_evm(cfg, repeats, warmup):
    """EVM throughput, JIT and interpreter, with an exact-gas gate.

    The headline ``evm_interpreter`` metric now runs with the
    bytecode-to-Python JIT active (the engine default); the pure
    interpreter is reported alongside as ``evm_interpreter_nojit``.
    Both executions of the identical workload must burn **exactly**
    the same gas — divergence exits with status 2, because a JIT that
    changes gas accounting is a consensus bug, not a perf win.
    """
    from repro.chain.state import WorldState
    from repro.crypto.keys import Address
    from repro.evm import jit
    from repro.evm.vm import EVM, BlockContext, Message

    iterations = cfg["evm_iterations"]
    caller = Address.from_hex("0x" + "11" * 20)
    contract = Address.from_hex("0x" + "22" * 20)
    code = _interpreter_loop_code(iterations)

    state = WorldState()
    state.set_balance(caller, 10**21)
    state.set_code(contract, code)
    block = BlockContext(coinbase=Address.from_hex("0x" + "33" * 20),
                         timestamp=1_700_000_000, number=1)

    def make_run(evm, sink):
        def run():
            result = evm.execute(Message(
                sender=caller, to=contract, value=0, data=b"",
                gas=10_000_000, origin=caller))
            assert result.success, result.error
            sink["gas"] = result.gas_used
            return result
        return run

    interp_sink: dict = {}
    run_interp = make_run(EVM(state, block, jit=False), interp_sink)
    best_interp, _ = _best_of(run_interp, repeats=repeats, warmup=warmup)

    jit_sink: dict = {}
    run_jit = make_run(EVM(state, block, jit=True), jit_sink)
    # Prime past the warm-up threshold so the timed region measures
    # compiled execution, not the compile itself.
    for _ in range(jit.warmup_threshold() + 1):
        run_jit()
    best_jit, _ = _best_of(run_jit, repeats=repeats, warmup=warmup)

    if interp_sink["gas"] != jit_sink["gas"]:
        print("FATAL: JIT execution changed gas accounting:")
        print(json.dumps({"interpreter": interp_sink["gas"],
                          "jit": jit_sink["gas"]}, indent=2))
        raise SystemExit(2)
    gas_used = jit_sink["gas"]

    ops = iterations * 6  # PUSH1, SWAP1, SUB, DUP1, JUMPI, JUMPDEST
    return {
        "evm_interpreter": {
            "value": ops / best_jit,
            "unit": "ops/s",
            "wall_s": best_jit,
            "gas": gas_used,
            "gas_per_s": gas_used / best_jit,
            "evm_jit": True,
            "note": f"counter loop, {iterations} iterations, JIT "
                    "active (bench_evm_throughput workload)",
        },
        "evm_interpreter_nojit": {
            "value": ops / best_interp,
            "unit": "ops/s",
            "wall_s": best_interp,
            "gas": gas_used,
            "gas_per_s": gas_used / best_interp,
            "evm_jit": False,
            "note": "same loop, dispatch interpreter forced",
        },
        "evm_jit_speedup": {
            "value": round(best_interp / best_jit, 2),
            "unit": "x",
            "note": "interpreter wall / JIT wall on the identical "
                    "workload (gas gated bit-identical, exit 2)",
        },
        "evm_gas": {
            "value": gas_used,
            "unit": "gas",
            "note": "identical between JIT and interpreter by "
                    "construction (enforced with exit 2 above)",
        },
    }


def _run_dispute():
    """The Table II dispute path; returns (outcome, ledger)."""
    from repro.apps.betting import deploy_betting, make_betting_protocol
    from repro.chain import EthereumSimulator
    from repro.core import Participant

    sim = EthereumSimulator()
    alice = Participant(account=sim.accounts[0], name="alice")
    bob = Participant(account=sim.accounts[1], name="bob")
    protocol = make_betting_protocol(sim, alice, bob, seed=42, rounds=1,
                                     challenge_period=0)
    deploy_betting(protocol, alice)
    protocol.collect_signatures()
    plan = protocol.betting_plan
    protocol.call_onchain(alice, "deposit", value=plan["stake"])
    protocol.call_onchain(bob, "deposit", value=plan["stake"])
    sim.advance_time_to(plan["timeline"].t3 + 1)
    outcome = protocol.dispute(bob).value
    return outcome, protocol.ledger


def bench_table2(cfg, repeats, warmup):
    best, (outcome, ledger) = _best_of(
        lambda: _run_dispute(), repeats=repeats, warmup=warmup)
    total = ledger.total()
    return {
        "table2_deploy_verified_instance_gas": {
            "value": outcome.deploy_receipt.gas_used,
            "unit": "gas",
            "note": "must be bit-for-bit stable across optimisations",
        },
        "table2_return_dispute_resolution_gas": {
            "value": outcome.resolve_receipt.gas_used,
            "unit": "gas",
            "note": "must be bit-for-bit stable across optimisations",
        },
        "table2_session_total_gas": {
            "value": total,
            "unit": "gas",
            "note": "whole dispute session, GasLedger total",
        },
        "table2_dispute_wall": {
            "value": total / best,
            "unit": "gas/s",
            "wall_s": best,
            "note": "end-to-end dispute session throughput",
        },
    }


def bench_multi_session(cfg, repeats, warmup):
    from repro.chain import EthereumSimulator, SimulatorConfig
    from repro.core import SessionEngine, spawn_fleet

    sessions = cfg["fleet_sessions"]

    def run():
        sim = EthereumSimulator(
            config=SimulatorConfig(num_accounts=2, auto_mine=False))
        drivers = spawn_fleet(sim, sessions, app="betting",
                              dishonest_fraction=0.1)
        metrics = SessionEngine(sim, drivers, mining="batch").run()
        return metrics

    best, metrics = _best_of(run, repeats=repeats, warmup=warmup)
    return {
        "multi_session": {
            "value": sessions / best,
            "unit": "sessions/s",
            "wall_s": best,
            "sessions": sessions,
            "gas": metrics.total_gas,
            "gas_per_s": metrics.total_gas / best,
            "note": f"{sessions} betting sessions, batch mining, "
                    "10% dishonest",
        },
    }


def bench_adversarial_dispute(cfg, repeats, warmup):
    """Table II's dispute gas must survive adversarial load, bit-for-bit.

    Runs every dispute-bearing Byzantine scenario (false result,
    cross-session replay, crash-and-restart, mempool censorship with
    replace-by-fee) and requires the dispute transactions to burn
    exactly the gas of the clean false-result reference run.  Any
    divergence means an adversary found a way to change what the
    challenger pays — a gas-determinism break, exit status 2.
    """
    from repro.adversary import ScenarioHarness, reference_dispute_gas

    harness = ScenarioHarness("betting")
    reference = dict(reference_dispute_gas("betting"))
    strategies = ("false-result", "replay-copy", "crash-restart",
                  "censor-mempool")

    def run():
        return {name: harness.run(name).dispute_gas
                for name in strategies}

    best, gas_by_strategy = _best_of(run, repeats=repeats, warmup=warmup)
    divergent = {name: gas for name, gas in gas_by_strategy.items()
                 if gas != reference}
    if divergent:
        print("FATAL: adversarial load changed the dispute gas:")
        print(json.dumps({"reference": reference,
                          "divergent": divergent}, indent=2))
        raise SystemExit(2)
    return {
        "adversarial_deploy_verified_instance_gas": {
            "value": reference["deployVerifiedInstance"],
            "unit": "gas",
            "note": "identical across all four adversarial scenarios",
        },
        "adversarial_return_dispute_resolution_gas": {
            "value": reference["returnDisputeResolution"],
            "unit": "gas",
            "note": "identical across all four adversarial scenarios",
        },
        "adversarial_dispute_wall": {
            "value": len(strategies) / best,
            "unit": "sessions/s",
            "wall_s": best,
            "note": "four Byzantine dispute scenarios, end to end",
        },
    }


#: The repo's pinned Table II reproduction figures (the cp=0 betting
#: dispute; same workload as ``bench_table2``).  The paper's absolute
#: numbers (225,082 / 37,745) are asserted approximately by
#: ``benchmarks/bench_table2_dispute_gas.py``; what this runner pins
#: is bit-stability: the direct dispute path must burn EXACTLY these
#: amounts while netting exists as an opt-in policy.
TABLE2_DEPLOY_VERIFIED_INSTANCE = 347_930
TABLE2_RETURN_DISPUTE_RESOLUTION = 57_560

#: Amortization floor the netted policy must clear at full batch size.
NETTING_MIN_AMORTIZATION = 8.0


def bench_netting(cfg, repeats, warmup):
    """Netted batch settlement vs per-session direct settlement.

    Runs the same honest betting fleet twice — once under the legacy
    ``DirectSettlement`` policy (one submit+finalize pair on chain per
    session) and once under ``NettedSettlement`` (one aggregator
    deploy + commitBatch + finalizeBatch per batch) — and reports the
    amortized on-chain settlement gas per session for each.

    Two hard gates, both exit status 2:

    1. **Table II bit-identity with netting off** — the direct-mode
       dispute path must still burn exactly the paper's gas
       (deployVerifiedInstance / returnDisputeResolution).  Enforced
       on every run, smoke included: netting must never perturb the
       legacy path.
    2. **Amortization floor** — at the full batch size the netted
       settlement gas per session must be at least
       ``NETTING_MIN_AMORTIZATION``× lower than direct.  Enforced on
       full runs only; a smoke-sized batch cannot amortize the
       aggregator deploy that far.
    """
    from repro.chain import EthereumSimulator, SimulatorConfig
    from repro.core import SessionEngine, spawn_fleet
    from repro.core.protocol import Stage

    sessions = cfg["netting_sessions"]
    batch = cfg["netting_batch"]
    smoke = cfg.get("smoke", False)

    def run(mode):
        config = SimulatorConfig(
            num_accounts=2, auto_mine=False, settlement=mode,
            batch_size=batch if mode == "netted" else 1)
        sim = EthereumSimulator(config=config)
        drivers = spawn_fleet(sim, sessions, app="betting")
        engine = SessionEngine(sim, drivers, mining="batch")
        engine.run()
        return engine, drivers

    best_direct, (__, direct_drivers) = _best_of(
        lambda: run("direct"), repeats=repeats, warmup=warmup)
    best_netted, (netted_engine, netted_drivers) = _best_of(
        lambda: run("netted"), repeats=repeats, warmup=warmup)
    assert all(d.settled for d in direct_drivers + netted_drivers)

    # Direct mode settles on chain in the propose and settle stages
    # (submitResult + finalize); everything before that — deploy,
    # deposits — is common to both policies and excluded.
    settle_stages = (Stage.PROPOSED.value, Stage.SETTLED.value)
    direct_settle_gas = sum(
        gas for d in direct_drivers
        for stage, gas in d.protocol.ledger.by_stage().items()
        if stage in settle_stages)
    direct_per_session = direct_settle_gas / sessions
    batcher = netted_engine.batcher
    netted_per_session = batcher.amortized_gas_per_session()
    amortization = direct_per_session / netted_per_session

    # Gate 1: with netting disabled, Table II is bit-identical.
    outcome, __ = _run_dispute()
    deploy_gas = outcome.deploy_receipt.gas_used
    resolve_gas = outcome.resolve_receipt.gas_used
    if (deploy_gas != TABLE2_DEPLOY_VERIFIED_INSTANCE
            or resolve_gas != TABLE2_RETURN_DISPUTE_RESOLUTION):
        print("FATAL: direct-mode Table II gas diverged from the "
              "pinned reproduction figures:")
        print(json.dumps({
            "deployVerifiedInstance": {
                "pinned": TABLE2_DEPLOY_VERIFIED_INSTANCE,
                "measured": deploy_gas},
            "returnDisputeResolution": {
                "pinned": TABLE2_RETURN_DISPUTE_RESOLUTION,
                "measured": resolve_gas},
        }, indent=2))
        raise SystemExit(2)

    # Gate 2: the amortization floor, full runs only.
    if not smoke and amortization < NETTING_MIN_AMORTIZATION:
        print(f"FATAL: netted settlement amortizes only "
              f"{amortization:.2f}x (< {NETTING_MIN_AMORTIZATION}x) "
              f"at batch={batch}")
        raise SystemExit(2)

    return {
        "netting_direct_settle_gas": {
            "value": direct_settle_gas,
            "unit": "gas",
            "sessions": sessions,
            "note": "direct policy: submitResult+finalize on chain "
                    "for every session",
        },
        "netting_batch_gas": {
            "value": batcher.total_gas(),
            "unit": "gas",
            "sessions": sessions,
            "batches": len(batcher.batches),
            "note": f"netted policy: aggregator deploy + commitBatch "
                    f"+ finalizeBatch per batch of {batch}",
        },
        "netting_amortization": {
            "value": round(amortization, 2),
            "unit": "x",
            "sessions": sessions,
            "direct_gas_per_session": round(direct_per_session, 1),
            "netted_gas_per_session": round(netted_per_session, 1),
            "note": f"direct / netted on-chain settlement gas per "
                    f"session; full runs gate >= "
                    f"{NETTING_MIN_AMORTIZATION}x (exit 2)",
        },
        "netting_table2_deploy_gas": {
            "value": deploy_gas,
            "unit": "gas",
            "note": "deployVerifiedInstance with netting off; gated "
                    "bit-identical to Table II (exit 2)",
        },
        "netting_table2_resolve_gas": {
            "value": resolve_gas,
            "unit": "gas",
            "note": "returnDisputeResolution with netting off; gated "
                    "bit-identical to Table II (exit 2)",
        },
        "netting_fleet_wall": {
            "value": sessions / best_netted,
            "unit": "sessions/s",
            "wall_s": best_netted,
            "sessions": sessions,
            "direct_wall_s": best_direct,
            "note": f"{sessions} honest betting sessions settled in "
                    f"netted batches of {batch}",
        },
    }


def bench_storage(cfg, repeats, warmup):
    """Persisted (WAL + snapshot) vs in-memory fleet throughput.

    Runs the same dishonest betting fleet twice — once purely in
    memory and once checkpointing every scheduler round into a
    ``RunStore`` (``repro engine --store``) — and reports both
    throughputs plus the durability overhead ratio (informational:
    it is fsync-bound, so it tracks the host's disk, not the code).

    One hard gate, exit status 2, enforced on every run including
    smoke: a child engine SIGKILLed mid-run with a torn WAL tail and
    finished by a second ``--resume`` child must produce gas ledgers,
    final stages and engine counters **bit-identical** to an
    uninterrupted reference run (``repro.adversary.crash``).
    """
    import tempfile

    from repro.adversary.crash import run_kill_restart
    from repro.chain import EthereumSimulator, SimulatorConfig
    from repro.core import SessionEngine, spawn_fleet
    from repro.core.recovery import RunStore

    sessions = cfg["storage_sessions"]

    def run(store=None):
        config = SimulatorConfig(num_accounts=2, auto_mine=False)
        sim = EthereumSimulator(config=config)
        drivers = spawn_fleet(sim, sessions, app="betting",
                              dishonest_fraction=0.25)
        SessionEngine(sim, drivers, mining="batch", store=store).run()
        return drivers

    store_stats: dict = {}

    def run_persisted():
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-store-") as tmp:
            store = RunStore(Path(tmp) / "run")
            try:
                drivers = run(store)
            finally:
                store.close()
            store_stats.clear()
            store_stats.update(store.kv.stats())
            return drivers

    best_memory, memory_drivers = _best_of(
        run, repeats=repeats, warmup=warmup)
    best_persisted, persisted_drivers = _best_of(
        run_persisted, repeats=repeats, warmup=warmup)

    # Same fleet either way: persistence must be semantically free.
    memory_prints = [d.protocol.ledger.fingerprint()
                     for d in memory_drivers]
    persisted_prints = [d.protocol.ledger.fingerprint()
                        for d in persisted_drivers]
    if memory_prints != persisted_prints:
        print("FATAL: persisted fleet gas ledgers diverged from the "
              "in-memory run")
        raise SystemExit(2)

    # Gate: SIGKILL + torn tail + --resume is bit-identical.
    with tempfile.TemporaryDirectory(
            prefix="repro-bench-crash-") as tmp:
        report = run_kill_restart(
            Path(tmp), sessions=3, dishonest=0.34,
            kill_after_commits=3, kill_mode="torn")
    if not report.identical:
        print("FATAL: SIGKILLed run recovered by --resume is not "
              "bit-identical to the uninterrupted reference:")
        print(json.dumps({
            "killed": report.killed,
            "resume_returncode": report.resume_returncode,
            "blocks_match": report.blocks_match,
            "txs_match": report.txs_match,
            "mismatches": report.mismatches,
        }, indent=2))
        raise SystemExit(2)

    return {
        "storage_memory_fleet": {
            "value": sessions / best_memory,
            "unit": "sessions/s",
            "wall_s": best_memory,
            "sessions": sessions,
            "note": "reference fleet, no store attached",
        },
        "storage_persisted_fleet": {
            "value": sessions / best_persisted,
            "unit": "sessions/s",
            "wall_s": best_persisted,
            "sessions": sessions,
            "wal_commits": store_stats.get("wal_commits"),
            "wal_records": store_stats.get("wal_records"),
            "wal_fsyncs": store_stats.get("wal_fsyncs"),
            "note": "same fleet checkpointed to a RunStore every "
                    "scheduler round (WAL + fsync per commit)",
        },
        "storage_overhead": {
            "value": round(best_persisted / best_memory, 3),
            "unit": "x",
            "sessions": sessions,
            "note": "persisted / in-memory wall time; fsync-bound, "
                    "informational only",
        },
        "storage_crash_recovery": {
            "value": int(report.identical),
            "unit": "fraction",
            "kill_after_commits": report.kill_after_commits,
            "kill_mode": report.kill_mode,
            "note": "1 = SIGKILL+torn-tail resume bit-identical to "
                    "the uninterrupted run (gated, exit 2)",
        },
    }


def bench_network(cfg, repeats, warmup):
    """The networked off-chain layer: throughput, latency, identity.

    Spawns a real ``repro node`` chain process and a ``repro
    participant`` remote-signer process, drives a betting fleet
    against them through :class:`RemoteSimulator` over the wire
    protocol, and reports sessions/s plus request-RTT p50/p99.  Each
    topology runs once (subprocess spawn cost dwarfs best-of noise;
    ``repeats``/``warmup`` are ignored).

    Two hard gates, both exit status 2, enforced on every run
    including smoke:

    1. **Topology identity** — the multi-process fleet's fingerprint
       (per-session gas ledgers + terminal stages) must equal the
       in-process run's, bit for bit.
    2. **Fault-schedule identity** — the same fleet driven through the
       ``LOSSY`` schedule (dropped, duplicated, delayed, reordered
       frames) must retransmit (retries > 0) and still land on the
       identical fingerprint.
    """
    import os
    import re
    import subprocess

    from repro.chain import EthereumSimulator, SimulatorConfig
    from repro.core import SessionEngine, fleet_fingerprint, spawn_fleet
    from repro.crypto.keys import PrivateKey
    from repro.net import (
        ChannelClient,
        FaultPolicy,
        RemoteSimulator,
        RemoteWhisperTransport,
    )
    from repro.net.faults import LOSSY

    sessions = cfg["network_sessions"]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}

    def inproc():
        sim = EthereumSimulator(
            config=SimulatorConfig(num_accounts=2, auto_mine=False))
        drivers = spawn_fleet(sim, sessions, app="betting")
        SessionEngine(sim, drivers, mining="batch").run()
        return fleet_fingerprint(drivers)

    def spawn_node():
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "node"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        line = proc.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if not match:
            proc.kill()
            raise SystemExit(f"error: repro node failed to start: "
                             f"{line!r}")
        return proc, match.group(1), int(match.group(2))

    def networked(faults=None, timeout=2.0, remote_signer=True):
        node, host, port = spawn_node()
        participant = None
        try:
            if remote_signer:
                participant = subprocess.Popen(
                    [sys.executable, "-m", "repro", "participant",
                     "--peer", f"{host}:{port}", "--role", "bob",
                     "--app", "betting", "--sessions", str(sessions)],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.STDOUT, env=env)
            client = ChannelClient(
                host, port, PrivateKey.from_seed("engine-client"),
                timeout=timeout, faults=faults)
            try:
                sim = RemoteSimulator(client, config=SimulatorConfig(
                    num_accounts=2, auto_mine=False))
                drivers = spawn_fleet(
                    sim, sessions, app="betting",
                    remote_roles=("bob",) if remote_signer else ())
                bus = RemoteWhisperTransport(client)
                for driver in drivers:
                    driver.protocol.bus = bus
                start = time.perf_counter()
                SessionEngine(sim, drivers, mining="batch").run()
                wall = time.perf_counter() - start
                record = {
                    "fingerprint": fleet_fingerprint(drivers),
                    "wall": wall,
                    "rtts": sorted(client.rtts),
                    "requests": client.requests,
                    "retries": client.retries,
                }
            finally:
                client.close()
            if participant is not None:
                if participant.wait(timeout=30) != 0:
                    raise SystemExit(
                        "error: the participant process failed")
        finally:
            if participant is not None and participant.poll() is None:
                participant.kill()
            node.terminate()
            node.wait(timeout=10)
        return record

    baseline = inproc()
    clean = networked()
    lossy = networked(faults=FaultPolicy(**LOSSY), timeout=0.25,
                      remote_signer=False)

    drift = {
        name: record["fingerprint"]
        for name, record in (("clean", clean), ("lossy", lossy))
        if record["fingerprint"] != baseline
    }
    if drift:
        print("FATAL: networked fleet fingerprints diverged from the "
              "in-process run:")
        print(json.dumps({"inproc": baseline, **drift}, indent=2))
        raise SystemExit(2)
    if lossy["retries"] == 0:
        print("FATAL: the LOSSY schedule produced no retransmissions "
              "— the fault path went unexercised")
        raise SystemExit(2)

    def percentile(rtts, q):
        return rtts[min(len(rtts) - 1, (len(rtts) * q) // 100)]

    return {
        "network_fleet": {
            "value": sessions / clean["wall"],
            "unit": "sessions/s",
            "wall_s": clean["wall"],
            "sessions": sessions,
            "requests": clean["requests"],
            "note": f"{sessions} betting sessions over the wire "
                    "protocol: separate node + remote-signer "
                    "processes, fingerprint gated bit-identical "
                    "(exit 2)",
        },
        "network_rtt_p50": {
            "value": percentile(clean["rtts"], 50),
            "unit": "seconds",
            "note": "median request round-trip over localhost TCP",
        },
        "network_rtt_p99": {
            "value": percentile(clean["rtts"], 99),
            "unit": "seconds",
            "note": "p99 request round-trip over localhost TCP",
        },
        "network_lossy_fleet": {
            "value": sessions / lossy["wall"],
            "unit": "sessions/s",
            "wall_s": lossy["wall"],
            "sessions": sessions,
            "requests": lossy["requests"],
            "retries": lossy["retries"],
            "note": "same fleet under the LOSSY drop/duplicate/"
                    "delay/reorder schedule; fingerprint gated "
                    "bit-identical (exit 2)",
        },
    }


def bench_hotpath(cfg, repeats, warmup):
    """Post-JIT hot-path kernels vs their retained reference oracles.

    Two paired measurements, each comparing an optimised kernel with
    the reference implementation it replaced (kept in-tree exactly so
    this gate can exist):

    1. **keccak** — the exec-compiled unrolled permutation vs the
       loop-based reference sponge.  Digests must be byte-identical on
       the awkward lengths (empty, rate-1, rate, rate+1, 1 KiB); any
       drift exits with status 2.  Full runs also enforce a >= 2.0x
       speedup floor (exit 1) — the measured ratio is ~2.5x, bounded
       by CPython's binary-op dispatch, not by the sponge.
    2. **ecdsa recovery** — GLV/wNAF batch recovery
       (``recover_batch``: shared Montgomery inversions + one batch
       normalisation) vs the pre-GLV reference double-scalar ladder.
       Recovered points must be identical (exit 2); full runs enforce
       a >= 1.35x floor (exit 1) against a ~1.75x pure-Python ceiling
       (the 130-doubling tail and ``lift_x`` sqrt are shared).
    """
    from repro.crypto import secp256k1
    from repro.crypto import keccak as keccak_mod
    from repro.crypto.ecdsa import recover_batch
    from repro.crypto.keccak import keccak256
    from repro.crypto.keys import PrivateKey

    smoke = cfg.get("smoke", False)

    # -- 1. keccak: identity on awkward lengths, then the speedup floor.
    probe = bytes(range(256)) * 5
    for size in (0, 1, 135, 136, 137, 1024):
        fast = keccak_mod._keccak256_raw(probe[:size])
        ref = keccak_mod._keccak256_reference(probe[:size])
        if fast != ref:
            print(f"FATAL: keccak kernel diverged from the reference "
                  f"at {size} bytes:")
            print(json.dumps({"fast": fast.hex(), "reference": ref.hex()},
                             indent=2))
            raise SystemExit(2)

    blob = b"\xab" * 1024
    rounds = cfg["keccak_rounds"]

    def run_keccak_fast():
        for _ in range(rounds):
            keccak_mod._keccak256_raw(blob)

    def run_keccak_ref():
        for _ in range(rounds):
            keccak_mod._keccak256_reference(blob)

    best_kfast, _ = _best_of(run_keccak_fast, repeats=repeats,
                             warmup=warmup)
    best_kref, _ = _best_of(run_keccak_ref, repeats=repeats,
                            warmup=warmup)
    keccak_speedup = best_kref / best_kfast
    if not smoke and keccak_speedup < 2.0:
        print(f"FATAL: keccak kernel speedup {keccak_speedup:.2f}x "
              "fell below the 2.0x floor vs the reference sponge")
        raise SystemExit(1)

    # -- 2. ecdsa: batch/GLV recovery vs the reference ladder.
    count = cfg["ecdsa_count"]
    keys = [PrivateKey.from_seed(f"hotpath-{i}") for i in range(count)]
    digests = [keccak256(b"hotpath digest %d" % i) for i in range(count)]
    signatures = [k.sign(d) for k, d in zip(keys, digests)]
    items = list(zip(digests, signatures))
    n = secp256k1.N

    def run_recover_reference():
        # The pre-GLV recovery: per-item scalar inversion, reference
        # Straus ladder, per-item Jacobian->affine normalisation.
        points = []
        for digest, signature in items:
            point_r = secp256k1.lift_x(signature.r,
                                       signature.recovery_id)
            r_inv = pow(signature.r, -1, n)
            z = int.from_bytes(digest, "big")
            points.append(secp256k1._double_scalar_mult_base_reference(
                (-z * r_inv) % n, signature.s * r_inv % n, point_r))
        return points

    def run_recover_batch():
        return recover_batch(items)

    best_rref, ref_points = _best_of(run_recover_reference,
                                     repeats=repeats, warmup=warmup)
    best_rfast, fast_points = _best_of(run_recover_batch,
                                       repeats=repeats, warmup=warmup)
    if fast_points != ref_points:
        print("FATAL: batch/GLV recovery diverged from the reference "
              "double-scalar ladder")
        raise SystemExit(2)
    recover_speedup = best_rref / best_rfast
    if not smoke and recover_speedup < 1.35:
        print(f"FATAL: batch recovery speedup {recover_speedup:.2f}x "
              "fell below the 1.35x floor vs the reference ladder")
        raise SystemExit(1)

    return {
        "hotpath_keccak_kernel": {
            "value": rounds * len(blob) / best_kfast,
            "unit": "bytes/s",
            "wall_s": best_kfast,
            "note": "exec-compiled unrolled permutation, 1 KiB blobs",
        },
        "hotpath_keccak_reference": {
            "value": rounds * len(blob) / best_kref,
            "unit": "bytes/s",
            "wall_s": best_kref,
            "note": "loop-based reference sponge (the retained oracle)",
        },
        "hotpath_keccak_speedup": {
            "value": keccak_speedup,
            "unit": "x",
            "note": "kernel vs reference; >= 2.0x floor enforced on "
                    "full runs (exit 1), byte-identity always (exit 2)",
        },
        "hotpath_recover_batch": {
            "value": count / best_rfast,
            "unit": "ops/s",
            "wall_s": best_rfast,
            "note": "recover_batch: GLV/wNAF + shared Montgomery "
                    "inversions + one batch normalisation",
        },
        "hotpath_recover_reference": {
            "value": count / best_rref,
            "unit": "ops/s",
            "wall_s": best_rref,
            "note": "pre-GLV path: per-item inversion + reference "
                    "Straus ladder",
        },
        "hotpath_recover_speedup": {
            "value": recover_speedup,
            "unit": "x",
            "note": ">= 1.35x floor enforced on full runs (exit 1), "
                    "point identity always (exit 2); ~1.75x is the "
                    "pure-Python ceiling (shared doubling tail + "
                    "lift_x sqrt)",
        },
    }


def check_telemetry_invariance():
    """Dispute gas with telemetry off vs on; must be byte-identical.

    Returns the invariance record; raises SystemExit(2) on divergence.
    """
    from repro import obs

    __, ledger_off = _run_dispute()
    with obs.telemetry() as telemetry:
        __, ledger_on = _run_dispute()
        profiler_total = telemetry.profiler.opcode_gas_total()

    record = {
        "telemetry_off_total": ledger_off.total(),
        "telemetry_on_total": ledger_on.total(),
        "telemetry_off_by_stage": {
            str(k): v for k, v in sorted(ledger_off.by_stage().items())},
        "telemetry_on_by_stage": {
            str(k): v for k, v in sorted(ledger_on.by_stage().items())},
        "profiler_opcode_total": profiler_total,
    }
    identical = (
        record["telemetry_off_total"] == record["telemetry_on_total"]
        and record["telemetry_off_by_stage"]
        == record["telemetry_on_by_stage"]
        and profiler_total == record["telemetry_on_total"]
    )
    record["identical"] = identical
    if not identical:
        print("FATAL: telemetry-on gas diverges from telemetry-off:")
        print(json.dumps(record, indent=2))
        raise SystemExit(2)
    return record


# ---------------------------------------------------------------------------
# Baseline comparison
# ---------------------------------------------------------------------------

def find_baseline(out_path: Path, explicit: str | None) -> Path | None:
    """Resolve the baseline file: --baseline, else newest BENCH_*.json."""
    if explicit:
        path = Path(explicit)
        if not path.exists():
            raise SystemExit(f"error: baseline {path} does not exist")
        return path
    candidates = [
        p for p in REPO.glob("BENCH_*.json")
        if p.resolve() != out_path.resolve()
    ]
    if not candidates:
        return None

    def created(path: Path) -> float:
        try:
            return json.loads(path.read_text())["created_unix"]
        except (ValueError, KeyError, OSError):
            return path.stat().st_mtime

    return max(candidates, key=created)


def compare(results: dict, baseline: dict, threshold: float) -> dict:
    """Per-metric ratios + regression verdicts against a baseline run."""
    comparison = {}
    base_results = baseline.get("results", {})
    for name, entry in results.items():
        base = base_results.get(name)
        if base is None or base.get("unit") != entry["unit"]:
            continue
        if entry.get("sessions") != base.get("sessions"):
            continue  # differently-sized workloads are not comparable
        kind = _UNIT_KIND.get(entry["unit"], "throughput")
        if kind == "info":
            continue
        old, new = base["value"], entry["value"]
        record = {"unit": entry["unit"], "baseline": old, "current": new}
        if kind == "exact":
            record["identical"] = old == new
            record["regression"] = old != new
        else:
            ratio = new / old if old else float("inf")
            record["ratio"] = round(ratio, 3)
            record["regression"] = ratio < (1.0 - threshold)
        comparison[name] = record
    return comparison


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

FULL_CONFIG = {
    "keccak_rounds": 50,
    "ecdsa_count": 12,
    "evm_iterations": 20_000,
    "fleet_sessions": 100,
    "netting_sessions": 100,
    "netting_batch": 100,
    "storage_sessions": 40,
    "network_sessions": 12,
}

SMOKE_CONFIG = {
    "keccak_rounds": 5,
    "ecdsa_count": 3,
    "evm_iterations": 2_000,
    "fleet_sessions": 5,
    "netting_sessions": 8,
    "netting_batch": 8,
    "storage_sessions": 4,
    "network_sessions": 3,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run the benchmark battery and gate regressions")
    parser.add_argument("--label", default="pr10",
                        help="run label; default output is "
                             "BENCH_<label>.json at the repo root")
    parser.add_argument("--out", help="output JSON path")
    parser.add_argument("--baseline",
                        help="baseline BENCH_*.json to compare against "
                             "(default: newest other BENCH_*.json)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions per benchmark (best-of)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="untimed warmup runs per benchmark")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="allowed throughput drop before failing "
                             "(fraction, default 0.20)")
    parser.add_argument("--smoke", action="store_true",
                        help="1 repeat, reduced sizes, no cross-file "
                             "regression gate (CI harness check)")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile every unit; writes "
                             "profile_<unit>.txt (top-20 cumulative) "
                             "next to the output JSON")
    args = parser.parse_args(argv)

    cfg = dict(SMOKE_CONFIG if args.smoke else FULL_CONFIG)
    cfg["smoke"] = args.smoke
    repeats = 1 if args.smoke else args.repeats
    warmup = 0 if args.smoke else args.warmup
    out_path = Path(args.out) if args.out else \
        REPO / f"BENCH_{args.label}.json"

    print(f"bench_runner: label={args.label} smoke={args.smoke} "
          f"repeats={repeats} warmup={warmup}")

    results: dict = {}
    for bench in (bench_keccak, bench_ecdsa, bench_evm, bench_table2,
                  bench_adversarial_dispute, bench_multi_session,
                  bench_netting, bench_storage,
                  bench_network, bench_hotpath):
        if args.profile:
            import cProfile
            import io
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            produced = bench(cfg, repeats, warmup)
            profiler.disable()
            stream = io.StringIO()
            pstats.Stats(profiler, stream=stream) \
                .sort_stats("cumulative").print_stats(20)
            unit_name = bench.__name__.removeprefix("bench_")
            profile_path = out_path.parent / f"profile_{unit_name}.txt"
            profile_path.write_text(stream.getvalue())
            print(f"  wrote {profile_path.name}")
        else:
            produced = bench(cfg, repeats, warmup)
        for name, entry in produced.items():
            results[name] = entry
            unit = entry["unit"]
            if unit == "gas":
                shown = f"{entry['value']:,}"
            elif unit == "seconds":
                shown, unit = f"{entry['value'] * 1000:,.2f}", "ms"
            else:
                shown = f"{entry['value']:,.0f}"
            print(f"  {name:<40} {shown:>16} {unit}")

    print("  checking telemetry on/off gas invariance ...")
    invariance = check_telemetry_invariance()
    print(f"  telemetry gas invariance: identical "
          f"({invariance['telemetry_on_total']:,} gas)")

    document = {
        "schema": SCHEMA,
        "label": args.label,
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "config": {"smoke": args.smoke, "repeats": repeats,
                   "warmup": warmup, **cfg},
        "results": results,
        "invariance": invariance,
    }

    status = 0
    baseline_path = None if args.smoke else \
        find_baseline(out_path, args.baseline)
    if baseline_path is not None:
        baseline = json.loads(baseline_path.read_text())
        comparison = compare(results, baseline, args.threshold)
        document["baseline"] = {
            "path": str(baseline_path),
            "label": baseline.get("label"),
            "created": baseline.get("created"),
            "results": baseline.get("results", {}),
        }
        document["comparison"] = comparison
        print(f"  baseline: {baseline_path.name} "
              f"(label={baseline.get('label')})")
        for name, record in sorted(comparison.items()):
            if "ratio" in record:
                marker = "REGRESSION" if record["regression"] else "ok"
                print(f"    {name:<40} {record['ratio']:>7.2f}x  {marker}")
                if record["regression"]:
                    status = max(status, 1)
            else:
                marker = "ok" if record["identical"] else "GAS MISMATCH"
                print(f"    {name:<40} {'exact':>8}  {marker}")
                if record["regression"]:
                    status = 2

    out_path.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {out_path}")
    if status:
        print(f"bench_runner: FAILED (exit {status})")
    return status


if __name__ == "__main__":
    sys.exit(main())
