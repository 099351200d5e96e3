"""Engine checkpointing and crash recovery over the durable store.

The :class:`~repro.core.engine.SessionEngine` commits one WAL
transaction per scheduling step (spawn bootstrap, every mined round,
every settled batch, run end).  At each commit point the mempool is
provably empty — a round mines everything it queued — so a recovered
run never has to reconstruct in-flight transactions.  What *is*
persisted per session:

* a **journal** of every mined round: the intents' (stage, label,
  actor) triples plus the mined transaction hashes, and — for netted
  sessions — the order in which the session parked with the batcher;
* a **terminal summary** once the session finishes: final stage,
  driver flags, the agreed truth, the full gas ledger, and enough
  receipt hashes to re-attach the on-chain contract and the dispute
  outcome.

Recovery (``repro engine --store=... --resume``) restores the chain
wholesale from the store, rebuilds terminal sessions from their
summaries (generators are *not* re-run — re-executing a finished
session against a later clock could diverge at its window checks),
and **replays** mid-flight sessions: the driver generator is re-run
from the top, fed the journaled receipts round by round — every label
is checked against the journal, a mismatch is a hard
:class:`RecoveryError` — until it reaches the crash frontier, where
the engine's normal scheduler takes over and finishes the session
under the PR 4 chain-clock challenge window.  Signature exchange
re-posts over a fresh Whisper bus and re-reads it via ``peek_all``
(deterministic: RFC-6979 signatures over fixed bytecode), which is the
bootstrap read the recovery path leans on.

Replay is time-safe for mid-flight sessions because a session between
submit and dispute completion has transaction work every round, so no
``WaitUntil`` warp lands inside that span: the clock at the crash
frontier trails the original run by at most the round's block
interval, far inside the 3600 s challenge window.  The full invariant
list lives in ``docs/persistence.md``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Optional

from repro import obs
from repro.chain.store import ChainStore
from repro.core.analytics import GasEntry
from repro.core.engine import (
    TxIntent,
    WaitForBatch,
    WaitUntil,
    _SessionState,
)
from repro.core.exceptions import EngineError
from repro.core.protocol import Stage
from repro.crypto import rlp
from repro.crypto.keys import Address
from repro.storage.kv import DEFAULT_COMPACT_BYTES, KVStore
from repro.storage.storable import StorableValue

#: Store format stamp; bumped on any incompatible layout change.
STORE_FORMAT = b"repro-store/1"

#: Engine-facing namespaces (the chain's live in repro.chain.store).
NS_ENGINE = b"engmeta"
NS_JOURNAL = b"sessjournal"
NS_SUMMARY = b"sesssummary"

#: Journal entry kinds.
KIND_ROUND = b"round"
KIND_PARK = b"park"

#: How many consecutive ``WaitUntil`` yields replay will skip before
#: deciding the generator is not converging on the journaled round.
_MAX_WAIT_SKIPS = 16


class RecoveryError(EngineError):
    """A store could not be recovered (divergence, bad config, skew)."""


# ---------------------------------------------------------------------------
# Tagged value codec (session truths / claims: None, bool, int, bytes, str)
# ---------------------------------------------------------------------------

def encode_value(value: Any) -> list:
    """RLP-embeddable ``[tag, payload]`` for a session result value."""
    if value is None:
        return [b"n", b""]
    if isinstance(value, bool):
        return [b"b", b"\x01" if value else b""]
    if isinstance(value, int):
        if value < 0:
            return [b"j", (-value).to_bytes(32, "big")]
        return [b"i", value.to_bytes(32, "big")]
    if isinstance(value, bytes):
        return [b"y", value]
    if isinstance(value, str):
        return [b"s", value.encode("utf-8")]
    raise RecoveryError(
        f"cannot persist session value of type {type(value).__name__}")


def decode_value(item: list) -> Any:
    """Inverse of :func:`encode_value`."""
    tag, payload = item
    if tag == b"n":
        return None
    if tag == b"b":
        return bool(payload)
    if tag == b"i":
        return int.from_bytes(payload, "big")
    if tag == b"j":
        return -int.from_bytes(payload, "big")
    if tag == b"y":
        return payload
    if tag == b"s":
        return payload.decode("utf-8")
    raise RecoveryError(f"unknown value tag {tag!r} in store")


def _encode_ledger(entries: list[GasEntry]) -> list:
    return [[e.stage.encode("utf-8"), e.label.encode("utf-8"), e.gas,
             e.actor.encode("utf-8"), e.block_number + 1]
            for e in entries]


def _decode_ledger(raw: list) -> list[GasEntry]:
    return [GasEntry(stage=stage.decode("utf-8"),
                     label=label.decode("utf-8"),
                     gas=rlp.decode_int(gas),
                     actor=actor.decode("utf-8"),
                     block_number=rlp.decode_int(block) - 1)
            for stage, label, gas, actor, block in raw]


def _session_key(session_id: int) -> bytes:
    return struct.pack(">I", session_id)


def _journal_key(session_id: int, seq: int) -> bytes:
    return struct.pack(">II", session_id, seq)


# ---------------------------------------------------------------------------
# Persisted session records
# ---------------------------------------------------------------------------

@dataclass
class SessionSummary:
    """One finished session, as reconstructed from the store."""

    status: bytes  # b"done" | b"error"
    error_text: str
    stage_value: str
    aborted: bool
    missed_window: bool
    abort_reason: str
    truth: Any
    ledger: list[GasEntry]
    deploy_tx_hash: bytes
    signed: bool
    dispute: Optional[tuple[bytes, bytes, bytes]]  # instance, deploy, resolve
    commitment: Optional[tuple[Any, int, bool, bool]]  # claim, deadline,
    #                                                    finalized, opened


class RestoredCommitment:
    """Stand-in for a terminal netted session's ``BatchCommitment``.

    The full commitment references the live batch object (tree,
    aggregator handle); a *terminal* restored session only ever needs
    the claim, the batch deadline and the finalized/opened flags —
    exactly what ``OnOffChainProtocol.outcome()`` and
    ``challenge_deadline()`` read.
    """

    def __init__(self, claim: Any, challenge_deadline: int,
                 finalized: bool = True, opened: bool = False) -> None:
        self.claim = claim
        self.challenge_deadline = challenge_deadline
        self.finalized = finalized
        self.opened = opened


# ---------------------------------------------------------------------------
# RunStore: the engine's facade over one KVStore directory
# ---------------------------------------------------------------------------

class RunStore:
    """One ``repro engine`` run's durable state (``--store=PATH``)."""

    def __init__(self, directory, *, fsync_batch: int = 1,
                 compact_bytes: int = DEFAULT_COMPACT_BYTES,
                 auto_compact: bool = True) -> None:
        self.kv = KVStore(directory, fsync_batch=fsync_batch,
                          compact_bytes=compact_bytes,
                          auto_compact=auto_compact)
        self.chain = ChainStore(self.kv)
        #: Extra config pairs the CLI wants bound into (and verified
        #: against) the store — app, dishonesty, gas limits.
        self.extra_config: dict[str, str] = {}
        self.status = StorableValue(self.kv, NS_ENGINE, b"status")
        self.config = StorableValue(self.kv, NS_ENGINE, b"config")
        self.counters = StorableValue(self.kv, NS_ENGINE, b"counters")
        self.batcher_state = StorableValue(self.kv, NS_ENGINE, b"batcher")
        self.park_seq = StorableValue(
            self.kv, NS_ENGINE, b"park_seq",
            encode=lambda v: v.to_bytes(8, "big"),
            decode=lambda raw: int.from_bytes(raw, "big"))
        self._journal_seq: dict[int, int] = {}
        for key in self.kv.keys(NS_JOURNAL):
            sid = struct.unpack(">I", key[:4])[0]
            self._journal_seq[sid] = self._journal_seq.get(sid, 0) + 1

    def close(self) -> None:
        """Close the store (staged-but-uncommitted writes are lost)."""
        self.kv.close()

    def bootstrapped(self) -> bool:
        """True once a run's first checkpoint committed."""
        return self.config.exists()

    # -- config --------------------------------------------------------

    def stage_config(self, record: dict[str, str]) -> None:
        """Stage the run's configuration (bootstrap only)."""
        pairs = sorted({**record, **self.extra_config}.items())
        self.config.set(rlp.encode(
            [[k.encode("utf-8"), v.encode("utf-8")] for k, v in pairs]))

    def load_config(self) -> dict[str, str]:
        """The configuration the store was bootstrapped with."""
        raw = self.config.get()
        if raw is None:
            return {}
        return {k.decode("utf-8"): v.decode("utf-8")
                for k, v in rlp.decode(raw)}

    def verify_config(self, record: dict[str, str]) -> None:
        """Reject a resume whose flags differ from the original run."""
        stored = self.load_config()
        current = {**record, **self.extra_config}
        mismatches = sorted(
            key for key in set(stored) | set(current)
            if stored.get(key) != current.get(key))
        if mismatches:
            details = ", ".join(
                f"{key}: stored {stored.get(key)!r} vs "
                f"resumed {current.get(key)!r}" for key in mismatches)
            raise RecoveryError(
                f"--resume configuration mismatch ({details}); a store "
                "can only be resumed with the flags it was created with")

    # -- engine meta ---------------------------------------------------

    def stage_engine_meta(self, engine) -> None:
        """Stage counters + batcher state (every checkpoint)."""
        counters = [
            [name.encode("utf-8"),
             int(engine.registry.get(name).total())]
            for name in (obs.names.METRIC_ENGINE_BLOCKS,
                         obs.names.METRIC_ENGINE_TXS,
                         obs.names.METRIC_ENGINE_ROUNDS)
        ]
        self.counters.set(rlp.encode(counters))
        batcher = engine.batcher
        if batcher is not None:
            self.batcher_state.set(rlp.encode([
                batcher.sessions_settled,
                len(batcher.batches),
                _encode_ledger(batcher.ledger.entries),
            ]))
        if not self.status.exists():
            self.status.set(b"running")

    def load_counters(self) -> list[tuple[str, int]]:
        """Persisted engine counter (metric name, total) pairs."""
        raw = self.counters.get()
        if raw is None:
            return []
        return [(name.decode("utf-8"), rlp.decode_int(value))
                for name, value in rlp.decode(raw)]

    def load_batcher_state(self) -> Optional[tuple[int, int, list]]:
        """Persisted (sessions_settled, batch count, ledger entries)."""
        raw = self.batcher_state.get()
        if raw is None:
            return None
        settled, batches, entries = rlp.decode(raw)
        return (rlp.decode_int(settled), rlp.decode_int(batches),
                _decode_ledger(entries))

    # -- per-session journal -------------------------------------------

    def stage_round(self, session_id: int,
                    txs: list[tuple[str, str, str, bytes]]) -> None:
        """Journal one mined round: (stage, label, actor, tx hash)."""
        seq = self._journal_seq.get(session_id, 0)
        self._journal_seq[session_id] = seq + 1
        self.kv.put(NS_JOURNAL, _journal_key(session_id, seq),
                    rlp.encode([KIND_ROUND, [
                        [stage.encode("utf-8"), label.encode("utf-8"),
                         actor.encode("utf-8"), tx_hash]
                        for stage, label, actor, tx_hash in txs]]))

    def stage_park(self, session_id: int) -> int:
        """Journal that the session enlisted with the batcher."""
        order = self.park_seq.get(0)
        self.park_seq.set(order + 1)
        seq = self._journal_seq.get(session_id, 0)
        self._journal_seq[session_id] = seq + 1
        self.kv.put(NS_JOURNAL, _journal_key(session_id, seq),
                    rlp.encode([KIND_PARK, order]))
        return order

    def load_journal(self, session_id: int) -> list[tuple[bytes, Any]]:
        """One session's journal, oldest first."""
        prefix = _session_key(session_id)
        entries: list[tuple[bytes, Any]] = []
        for key, raw in self.kv.items(NS_JOURNAL):
            if key[:4] != prefix:
                continue
            kind, payload = rlp.decode(raw)
            if kind == KIND_ROUND:
                entries.append((kind, [
                    (stage.decode("utf-8"), label.decode("utf-8"),
                     actor.decode("utf-8"), tx_hash)
                    for stage, label, actor, tx_hash in payload]))
            elif kind == KIND_PARK:
                entries.append((kind, rlp.decode_int(payload)))
            else:
                raise RecoveryError(
                    f"unknown journal entry kind {kind!r}")
        return entries

    def load_park_order(self) -> dict[int, int]:
        """session_id -> enlist order, for every journaled park."""
        order: dict[int, int] = {}
        for key, raw in self.kv.items(NS_JOURNAL):
            kind, payload = rlp.decode(raw)
            if kind == KIND_PARK:
                sid = struct.unpack(">I", key[:4])[0]
                order[sid] = rlp.decode_int(payload)
        return order

    # -- terminal summaries --------------------------------------------

    def stage_summary(self, state: _SessionState) -> None:
        """Stage a finished session's terminal summary."""
        driver = state.driver
        protocol = driver.protocol
        status = b"error" if state.error is not None else b"done"
        error_text = "" if state.error is None else str(state.error)
        deploy_hash = b""
        onchain = protocol.onchain
        if onchain is not None and onchain.deploy_receipt is not None:
            deploy_hash = onchain.deploy_receipt.transaction_hash
        dispute = protocol._dispute_outcome
        dispute_rec = [0, b"", b"", b""]
        if dispute is not None:
            dispute_rec = [
                1, dispute.instance_address.value,
                dispute.deploy_receipt.transaction_hash,
                dispute.resolve_receipt.transaction_hash]
        commitment = protocol.batch_commitment
        commit_rec: list = [0, [b"n", b""], 0, 0, 0]
        if commitment is not None:
            commit_rec = [
                1, encode_value(commitment.claim),
                commitment.challenge_deadline,
                1 if commitment.finalized else 0,
                1 if commitment.opened else 0]
        raw = rlp.encode([
            status,
            error_text.encode("utf-8"),
            protocol.stage.value.encode("utf-8"),
            [1 if driver.aborted else 0,
             1 if driver.missed_window else 0],
            driver.abort_reason.encode("utf-8"),
            encode_value(driver.truth),
            _encode_ledger(protocol.ledger.entries),
            deploy_hash,
            1 if protocol.signed_copies else 0,
            dispute_rec,
            commit_rec,
        ])
        self.kv.put(NS_SUMMARY, _session_key(driver.session_id), raw)

    def load_summary(self, session_id: int) -> Optional[SessionSummary]:
        """The terminal summary for one session, if it finished."""
        raw = self.kv.get(NS_SUMMARY, _session_key(session_id))
        if raw is None:
            return None
        (status, error_text, stage_value, flags, abort_reason, truth,
         ledger, deploy_hash, signed, dispute_rec, commit_rec) = \
            rlp.decode(raw)
        aborted, missed = flags
        dispute = None
        if rlp.decode_int(dispute_rec[0]):
            dispute = (dispute_rec[1], dispute_rec[2], dispute_rec[3])
        commitment = None
        if rlp.decode_int(commit_rec[0]):
            commitment = (
                decode_value(commit_rec[1]),
                rlp.decode_int(commit_rec[2]),
                bool(rlp.decode_int(commit_rec[3])),
                bool(rlp.decode_int(commit_rec[4])))
        return SessionSummary(
            status=status,
            error_text=error_text.decode("utf-8"),
            stage_value=stage_value.decode("utf-8"),
            aborted=bool(rlp.decode_int(aborted)),
            missed_window=bool(rlp.decode_int(missed)),
            abort_reason=abort_reason.decode("utf-8"),
            truth=decode_value(truth),
            ledger=_decode_ledger(ledger),
            deploy_tx_hash=deploy_hash,
            signed=bool(rlp.decode_int(signed)),
            dispute=dispute,
            commitment=commitment,
        )


# ---------------------------------------------------------------------------
# Recovery proper
# ---------------------------------------------------------------------------

def recover_sessions(engine) -> list[_SessionState]:
    """Rebuild the engine's session states from a committed store.

    Chain first (blocks, receipts, state, clock), then counters and
    batcher accounting, then every session: terminal ones from their
    summaries, mid-flight ones by journal-driven replay.  Returns the
    session list in driver order, positioned exactly at the crash
    frontier.
    """
    store = engine.store
    engine.simulator.chain.restore_from_store()
    for name, value in store.load_counters():
        if value:
            engine.registry.get(name).inc(value)
    batcher_state = store.load_batcher_state()
    if engine.batcher is not None and batcher_state is not None:
        settled, __, entries = batcher_state
        engine.batcher.sessions_settled = settled
        for entry in entries:
            engine.batcher.ledger.record_raw(
                entry.stage, entry.label, entry.gas, actor=entry.actor,
                block_number=entry.block_number)
    park_order = store.load_park_order()

    sessions: list[_SessionState] = []
    replayed = 0
    for driver in engine.drivers:
        summary = store.load_summary(driver.session_id)
        if summary is not None:
            sessions.append(_restore_terminal(engine, driver, summary))
        else:
            sessions.append(_replay_session(engine, driver, store))
            replayed += 1
    if obs.enabled():
        obs.inc(obs.names.METRIC_STORAGE_SESSIONS_REPLAYED, replayed)

    if engine.batcher is not None and park_order:
        # Re-enlistment during replay runs in session order; the
        # original run enlisted in round-arrival order.  Restore it so
        # batch composition (tree, leaf indices) is reproduced.
        fallback = len(park_order)
        engine.batcher.pending.sort(
            key=lambda p: park_order.get(p.state.session_id, fallback))
    return sessions


def _restore_terminal(engine, driver,
                      summary: SessionSummary) -> _SessionState:
    """Rebuild a finished session from its summary (no generator run)."""
    protocol = driver.protocol
    state = _SessionState(driver=driver, generator=driver.steps())
    state.done = True
    if summary.status == b"error":
        state.error = EngineError(summary.error_text)
    driver.aborted = summary.aborted
    driver.missed_window = summary.missed_window
    driver.abort_reason = summary.abort_reason
    driver.truth = summary.truth

    if summary.deploy_tx_hash:
        # Re-attach the on-chain half against the restored chain, and
        # re-run the (deterministic) signature exchange so outcome()
        # and dispute queries read live contract state.
        protocol.prepare_deploy(driver.plan["constructor_args"],
                                driver.plan["offchain_state"])
        receipt = engine.simulator.get_receipt(summary.deploy_tx_hash)
        protocol.attach_onchain(receipt)
        if summary.signed:
            protocol.collect_signatures()
    if summary.dispute is not None and protocol.onchain is not None:
        instance, deploy_hash, resolve_hash = summary.dispute
        protocol.record_dispute(
            Address(instance),
            engine.simulator.get_receipt(deploy_hash),
            engine.simulator.get_receipt(resolve_hash))
    if summary.commitment is not None:
        claim, deadline, finalized, opened = summary.commitment
        protocol.batch_commitment = RestoredCommitment(
            claim, deadline, finalized=finalized, opened=opened)
    protocol.stage = Stage(summary.stage_value)
    protocol.ledger.entries.clear()
    for entry in summary.ledger:
        protocol.ledger.record_raw(
            entry.stage, entry.label, entry.gas, actor=entry.actor,
            block_number=entry.block_number)
    return state


def _replay_session(engine, driver, store: RunStore) -> _SessionState:
    """Re-run a mid-flight driver against its journal.

    The generator is driven with the journaled receipts (fetched from
    the restored chain — they are never re-mined) and stops at the
    crash frontier with a live pending step for the scheduler.  Replay
    never queues transactions and never touches engine counters — both
    were already persisted by the crashed run.
    """
    sim = engine.simulator
    protocol = driver.protocol
    state = _SessionState(driver=driver, generator=driver.steps())
    entries = store.load_journal(driver.session_id)

    def advance(value):
        """Pump the generator; mid-replay exhaustion is a skew error."""
        try:
            if value is _START:
                return next(state.generator)
            return state.generator.send(value)
        except StopIteration:
            raise RecoveryError(
                f"session {driver.session_id}: generator finished "
                "during replay but no terminal summary was stored — "
                "journal/summary skew") from None

    _START = object()
    step = advance(_START)
    for kind, payload in entries:
        if kind == KIND_PARK:
            step = _skip_waits(driver, state, step)
            if not isinstance(step, WaitForBatch):
                raise RecoveryError(
                    f"session {driver.session_id}: journal says the "
                    f"session parked but replay yielded {step!r}")
            continue
        step = _skip_waits(driver, state, step)
        if not (isinstance(step, list)
                and all(isinstance(i, TxIntent) for i in step)):
            raise RecoveryError(
                f"session {driver.session_id}: journal holds a mined "
                f"round but replay yielded {step!r}")
        if len(step) != len(payload):
            raise RecoveryError(
                f"session {driver.session_id}: replay queued "
                f"{len(step)} transactions where the journal recorded "
                f"{len(payload)} — non-deterministic driver")
        receipts = []
        for intent, (stage, label, actor, tx_hash) in zip(step, payload):
            if (intent.stage, intent.label, intent.actor) != \
                    (stage, label, actor):
                raise RecoveryError(
                    f"session {driver.session_id}: replay diverged — "
                    f"journal recorded {stage}/{label}/{actor}, replay "
                    f"produced {intent.stage}/{intent.label}/"
                    f"{intent.actor}")
            receipt = sim.get_receipt(tx_hash)
            protocol.ledger.record(stage, label, receipt, actor)
            receipts.append(receipt)
        step = advance(receipts)

    # Crash frontier: hand the live step back to the scheduler.
    if isinstance(step, (WaitUntil, WaitForBatch)):
        state.pending = step
    elif isinstance(step, list) and step and \
            all(isinstance(i, TxIntent) for i in step):
        state.pending = step
    else:
        raise RecoveryError(
            f"session {driver.session_id}: replay frontier yielded "
            f"{step!r}; expected TxIntents, WaitUntil or WaitForBatch")
    return state


def _skip_waits(driver, state: _SessionState, step):
    """Drive past ``WaitUntil`` yields the original run warped over."""
    skips = 0
    while isinstance(step, WaitUntil):
        skips += 1
        if skips > _MAX_WAIT_SKIPS:
            raise RecoveryError(
                f"session {driver.session_id}: replay is stuck on "
                f"WaitUntil({step.timestamp}) — journal and driver "
                "disagree about the session's timeline")
        try:
            step = state.generator.send(None)
        except StopIteration:
            raise RecoveryError(
                f"session {driver.session_id}: generator finished "
                "while skipping a journaled wait") from None
    return step
