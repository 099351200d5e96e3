"""Multi-session protocol engine with batch mining.

One :class:`~repro.core.protocol.OnOffChainProtocol` instance walks a
single contract through the four stages, mining a block per
transaction.  Real chains do not work that way: many independent
protocol sessions share one mempool and miners pack their transactions
into common blocks.  ``SessionEngine`` reproduces that regime — it
drives N sessions concurrently against one shared simulator, routes
every transaction through the mempool, and mines *batched* blocks
(``Blockchain.mine_block`` pulling ``Mempool.pop_batch``) instead of a
block per transaction.

Sessions are written as :class:`ProtocolDriver` generators that yield
either a batch of :class:`TxIntent` (transactions to queue; the engine
resumes the generator with the mined receipts, in order) or a
:class:`WaitUntil` marker (resume once the chain clock reaches a
deadline).  The engine interleaves all sessions cooperatively:
transaction work is always drained before the clock advances, so a
challenge never misses its window because some other session was
waiting out its own.

Two mining modes make the paper-scale comparison measurable:

* ``"batch"``  — queue every runnable session's transactions, then
  mine as few blocks as the block gas limit allows;
* ``"per-tx"`` — mine one block per transaction, replicating the
  auto-mining regime single-session code uses.

Per-session gas ledgers come out identical across modes (contracts
have isolated storage; only block numbers differ), which
``GasLedger.fingerprint`` makes checkable.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Generator, Iterable, Optional, Sequence, Union

from repro import obs
from repro.chain.simulator import EthereumSimulator, SimAccount
from repro.core.analytics import EngineMetrics
from repro.obs.metrics import MetricsRegistry
from repro.core.exceptions import EngineError, SigningError
from repro.core.participants import Participant, Strategy
from repro.core.protocol import (
    OnOffChainProtocol,
    Stage,
    results_equal,
)
from repro.core.settlement import (
    AGGREGATOR_DEPLOY_GAS,
    COMMIT_GAS,
    DEFAULT_BATCH_WINDOW,
    FINALIZE_BATCH_GAS,
    MAX_BATCH_SIZE,
    OPEN_GAS,
    DirectSettlement,
    PendingLeaf,
    SettlementPolicy,
    build_policy,
)
from repro.crypto.keys import Address

# Declared gas limits for queued transactions.  ``Mempool.pop_batch``
# packs blocks by *declared* limit, not gas used, so these are kept
# tight (with ~2-4x headroom over measured usage) — sloppy limits
# collapse batching density.
DEPLOY_GAS = 2_500_000
TRANSFER_CALL_GAS = 150_000
SUBMIT_GAS = 250_000
FINALIZE_GAS = 300_000
DISPUTE_DEPLOY_GAS = 2_500_000
DISPUTE_RESOLVE_GAS = 800_000


@dataclass(frozen=True)
class TxIntent:
    """One transaction a session wants mined.

    ``stage``/``label``/``actor`` mirror the arguments of
    :meth:`GasLedger.record`; the engine records every mined intent
    into its session's ledger with them, keeping engine-driven ledgers
    byte-compatible with the synchronous path.
    """

    sender: SimAccount
    to: Optional[Address]  # None deploys a contract
    data: bytes = b""
    value: int = 0
    gas_limit: int = TRANSFER_CALL_GAS
    stage: str = ""
    label: str = ""
    actor: str = ""


@dataclass(frozen=True)
class WaitUntil:
    """Yielded by a driver to sleep until the chain clock reaches
    ``timestamp`` (the *next* block's timestamp, as with
    ``advance_time_to``)."""

    timestamp: int


@dataclass(frozen=True)
class WaitForBatch:
    """Yielded by a netted session once its signed final state is
    enlisted with the batcher: the session parks until the engine
    flushes the batch containing its ``ticket`` (commit, openings,
    disputes and finalize all run inside ``_settle_batch``)."""

    ticket: PendingLeaf


DriverStep = Union[list, WaitUntil, WaitForBatch]
DriverGenerator = Generator[DriverStep, Any, None]


class ProtocolDriver:
    """Adapts one protocol session to the engine's cooperative loop.

    Subclasses implement :meth:`steps` as a generator over the
    session's life; the shared implementation here covers the four
    stages for any two-phase app (fund → submit/challenge →
    finalize-or-dispute), with hooks for app-specific funding and
    timeline waits.
    """

    def __init__(self, protocol: OnOffChainProtocol,
                 session_id: int = 0,
                 settlement: Optional[SettlementPolicy] = None) -> None:
        self.protocol = protocol
        self.session_id = session_id
        #: How this session settles after unanimous agreement.  The
        #: engine overwrites this with its fleet-wide policy; the
        #: default keeps directly driven sessions on the legacy path.
        self.settlement: SettlementPolicy = settlement or \
            DirectSettlement()
        self.truth: Any = None
        #: Set when the session aborted before any money moved
        #: (a participant refused to sign — rule 1 of Table I).
        self.aborted = False
        self.abort_reason = ""
        #: Set when a false result could not be challenged in time and
        #: finalized instead (the challenge window had already closed).
        self.missed_window = False

    # -- hooks ---------------------------------------------------------

    @property
    def plan(self) -> dict:
        """The app's deployment plan (constructor args, state, ...)."""
        raise NotImplementedError

    def funding_intents(self) -> list[TxIntent]:
        """Transactions that escrow the app's money after signing."""
        raise NotImplementedError

    def submit_ready_at(self) -> Optional[int]:
        """Timestamp before which the result cannot be submitted."""
        return None

    # -- helpers -------------------------------------------------------

    @property
    def representative(self) -> Participant:
        """The session's representative (first participant)."""
        return self.protocol.participants[0]

    def encode_onchain(self, function_name: str, *args: Any) -> bytes:
        """ABI-encode a call to the session's on-chain half."""
        fn = self.protocol.onchain.abi.function(function_name)
        return fn.encode_call(list(args))

    def call_intent(self, participant: Participant, function_name: str,
                    *args: Any, value: int = 0,
                    gas_limit: int = TRANSFER_CALL_GAS) -> TxIntent:
        """Build a TxIntent calling the on-chain contract."""
        return TxIntent(
            sender=participant.account,
            to=self.protocol.onchain.address,
            data=self.encode_onchain(function_name, *args),
            value=value,
            gas_limit=gas_limit,
            stage=self.protocol.stage.value,
            label=function_name,
            actor=participant.name,
        )

    # -- the session ---------------------------------------------------

    def steps(self) -> DriverGenerator:
        """The driver generator: one session's full lifecycle."""
        protocol = self.protocol
        rep = self.representative

        # Stage 2a: deploy the on-chain half (deferred mining).
        init_code = protocol.prepare_deploy(
            self.plan["constructor_args"], self.plan["offchain_state"])
        [deploy_receipt] = yield [TxIntent(
            sender=rep.account, to=None, data=init_code,
            gas_limit=DEPLOY_GAS, stage=Stage.DEPLOYED.value,
            label="deploy onChain", actor=rep.name,
        )]
        protocol.attach_onchain(deploy_receipt)

        # Stage 2b: signature exchange is pure off-chain traffic.  A
        # refusal to sign aborts the whole session *before any money
        # moved* (rule 1 of Table I) — the engine treats that as a
        # graceful terminal state, not a scheduling failure.
        try:
            protocol.collect_signatures()
        except SigningError as exc:
            self.aborted = True
            self.abort_reason = str(exc)
            return

        # App-specific escrow (deposits / funding).
        funding = self.funding_intents()
        if funding:
            yield funding

        # Stages 3 and 4 are the settlement policy's: the result wait,
        # unanimous agreement, and either the per-session
        # submit/finalize pair (DirectSettlement, the legacy path) or
        # enlist-and-park in a netted batch (NettedSettlement).
        yield from self.settlement.settle(self)

    def dispute_steps(self, challenger: Participant) -> DriverGenerator:
        """Stage 4: the challenger reveals the signed copy.

        Shared by both settlement policies — a netted session that was
        opened escalates through exactly these transactions, so
        dispute gas stays bit-identical to the direct path.
        """
        protocol = self.protocol
        copy = protocol.signed_copies[challenger.name]
        copy.require_valid([p.address for p in protocol.participants])
        [dispute_deploy] = yield [TxIntent(
            sender=challenger.account, to=protocol.onchain.address,
            data=self.encode_onchain(
                "deployVerifiedInstance", copy.bytecode,
                *copy.vrs_arguments()),
            gas_limit=DISPUTE_DEPLOY_GAS, stage=Stage.DISPUTED.value,
            label="deployVerifiedInstance", actor=challenger.name,
        )]
        instance_address = Address(protocol.onchain.call("deployedAddr"))
        resolve_fn = protocol.compiled_offchain.abi.function(
            "returnDisputeResolution")
        [dispute_resolve] = yield [TxIntent(
            sender=challenger.account, to=instance_address,
            data=resolve_fn.encode_call([protocol.onchain.address]),
            gas_limit=DISPUTE_RESOLVE_GAS, stage=Stage.DISPUTED.value,
            label="returnDisputeResolution", actor=challenger.name,
        )]
        protocol.record_dispute(
            instance_address, dispute_deploy, dispute_resolve)

    def _pick_challenger(self) -> Participant:
        """The first participant willing to challenge, or EngineError.

        A fleet where every party is silent or dishonest cannot police
        a false result — that is a configuration error, surfaced
        loudly rather than silently finalizing lies.
        """
        challenger = next(
            (p for p in self.protocol.participants if p.will_challenge),
            None)
        if challenger is None:
            raise EngineError(
                f"session {self.session_id}: a dispute is needed but "
                "no honest participant is willing to challenge"
            )
        return challenger

    # -- outcome -------------------------------------------------------

    @property
    def settled(self) -> bool:
        """True once the session reached a terminal state (including a
        pre-funding abort after a signature refusal).  Delegated to the
        settlement policy, which knows what terminal means under its
        mode."""
        return self.aborted or self.settlement.session_settled(self)

    @property
    def disputed(self) -> bool:
        """True when the session settled through Dispute/Resolve."""
        return self.protocol.stage is Stage.RESOLVED


class BettingDriver(ProtocolDriver):
    """Drives one betting game (Table I) through the engine."""

    app = "betting"

    @property
    def plan(self) -> dict:
        """The betting plan backing this session."""
        return self.protocol.betting_plan

    def funding_intents(self) -> list[TxIntent]:
        """Both participants stake via ``deposit``."""
        return [
            self.call_intent(participant, "deposit",
                             value=self.plan["stake"])
            for participant in self.protocol.participants
        ]

    def submit_ready_at(self) -> Optional[int]:
        """Submission opens once the guessing window closed."""
        return self.plan["timeline"].t2 + 1


class EscrowDriver(ProtocolDriver):
    """Drives one escrow settlement through the engine."""

    app = "escrow"

    @property
    def plan(self) -> dict:
        """The escrow plan backing this session."""
        return self.protocol.escrow_plan

    def funding_intents(self) -> list[TxIntent]:
        """The buyer funds the escrow price."""
        buyer = self.protocol.participants[0]
        return [self.call_intent(buyer, "fund", value=self.plan["price"])]


class TenderDriver(ProtocolDriver):
    """Drives one sealed-tender award through the engine."""

    app = "tender"

    @property
    def plan(self) -> dict:
        """The tender plan backing this session."""
        return self.protocol.tender_plan

    def funding_intents(self) -> list[TxIntent]:
        """The buyer funds the tender budget."""
        buyer = self.protocol.participants[0]
        return [self.call_intent(buyer, "fund", value=self.plan["budget"])]


@dataclass
class _SessionState:
    driver: ProtocolDriver
    generator: DriverGenerator
    pending: Optional[DriverStep] = None  # last yield, not yet serviced
    done: bool = False
    error: Optional[BaseException] = None
    intents: list = field(default_factory=list)
    tx_hashes: list = field(default_factory=list)


class SessionEngine:
    """Runs many protocol sessions against one shared simulator.

    The scheduling loop alternates two phases until every session
    finishes: (1) queue and mine all runnable sessions' transaction
    batches, resuming each with its receipts; (2) when nothing has
    transaction work, warp the clock to the earliest ``WaitUntil``
    deadline and resume every session whose deadline passed.
    """

    def __init__(self, simulator: EthereumSimulator,
                 drivers: Iterable[ProtocolDriver] = (),
                 mining: str = "batch",
                 block_gas_limit: Optional[int] = None,
                 settlement: Union[SettlementPolicy, str, None] = None,
                 batch_size: Optional[int] = None,
                 store=None, resume: bool = False) -> None:
        if mining not in ("batch", "per-tx"):
            raise EngineError(
                f"unknown mining mode {mining!r}; use 'batch' or 'per-tx'")
        self.simulator = simulator
        self.mining = mining
        self.block_gas_limit = block_gas_limit
        # Settlement policy: explicit argument wins, then the
        # simulator's validated config, then the legacy direct path.
        config = getattr(simulator, "config", None)
        if settlement is None:
            settlement = getattr(config, "settlement", "direct")
        if isinstance(settlement, str):
            settlement = build_policy(
                settlement, simulator,
                challenge_period=getattr(
                    config, "settlement_challenge_period",
                    DEFAULT_BATCH_WINDOW))
        self.settlement: SettlementPolicy = settlement
        #: The netted batcher, or None under direct settlement.
        self.batcher = getattr(settlement, "batcher", None)
        if batch_size is None:
            batch_size = getattr(config, "batch_size", 1)
        if not 1 <= int(batch_size) <= MAX_BATCH_SIZE:
            raise EngineError(
                f"batch size {batch_size} not in [1, {MAX_BATCH_SIZE}]")
        self.batch_size = int(batch_size)
        self.drivers: list[ProtocolDriver] = list(drivers)
        # The engine counts into its own registry (the `engine.*` part
        # of the telemetry contract); EngineMetrics is a façade over
        # it.  A private registry keeps concurrent engines (e.g. the
        # batch-vs-per-tx comparison) from cross-counting; when global
        # telemetry is active every count is mirrored there too.
        self.registry = MetricsRegistry()
        for name in (obs.names.METRIC_ENGINE_SESSIONS,
                     obs.names.METRIC_ENGINE_DISPUTES,
                     obs.names.METRIC_ENGINE_BLOCKS,
                     obs.names.METRIC_ENGINE_TXS,
                     obs.names.METRIC_ENGINE_ROUNDS):
            self.registry.counter(name)
        self.registry.gauge(obs.names.METRIC_ENGINE_WALL_SECONDS)
        #: Durable run store (``--store=PATH``).  The engine owns the
        #: commit cadence: one WAL transaction per scheduling step, and
        #: the mempool is provably empty at every commit point.
        self.store = store
        self.resume = bool(resume)
        self._commits = 0
        # Crash-harness knobs: SIGKILL this process right after the
        # N-th store commit; "torn" additionally flushes garbage WAL
        # records without a commit marker first, manufacturing the
        # torn-tail shape recovery must discard.
        self._kill_after = int(
            os.environ.get("REPRO_STORE_KILL_AFTER_COMMITS") or 0)
        self._kill_mode = os.environ.get("REPRO_STORE_KILL_MODE", "kill")
        if store is not None:
            if self.resume and not store.bootstrapped():
                raise EngineError(
                    "cannot --resume: the store was never bootstrapped")
            if not self.resume and store.bootstrapped():
                raise EngineError(
                    "the store already holds a run; pass --resume to "
                    "recover it or point --store at a fresh directory")
            simulator.chain.attach_store(store.chain)
        elif self.resume:
            raise EngineError("--resume requires --store")

    def add(self, driver: ProtocolDriver) -> None:
        """Register one more session before :meth:`run`."""
        self.drivers.append(driver)

    def _count(self, name: str, amount: int = 1) -> None:
        """Increment a local engine counter, mirrored to global obs."""
        self.registry.get(name).inc(amount)
        if obs.enabled():
            obs.inc(name, amount)

    @property
    def blocks_mined(self) -> int:
        """Blocks the engine has scheduled so far (registry-backed)."""
        return int(self.registry.get(obs.names.METRIC_ENGINE_BLOCKS)
                   .total())

    @property
    def transactions(self) -> int:
        """Transactions the engine has mined so far (registry-backed)."""
        return int(self.registry.get(obs.names.METRIC_ENGINE_TXS)
                   .total())

    # -- the scheduler -------------------------------------------------

    def run(self) -> EngineMetrics:
        """Drive every session to completion; return fleet metrics."""
        started = time.perf_counter()
        with obs.span(obs.names.SPAN_ENGINE_RUN, mining=self.mining,
                      sessions=len(self.drivers),
                      settlement=self.settlement.name):
            for driver in self.drivers:
                driver.settlement = self.settlement
            if self.store is not None and self.resume:
                from repro.core.recovery import recover_sessions

                with obs.span(obs.names.SPAN_STORAGE_RECOVER,
                              sessions=len(self.drivers)):
                    self.store.verify_config(self._config_record())
                    sessions = recover_sessions(self)
                self._checkpoint()
            else:
                sessions = [
                    _SessionState(driver=driver,
                                  generator=driver.steps())
                    for driver in self.drivers
                ]
                for session in sessions:
                    self._resume(session, None)
                if self.store is not None:
                    # Bootstrap: the spawn-time chain (funded fleet
                    # accounts, genesis) plus the run config become the
                    # store's first committed transaction.
                    self.store.stage_config(self._config_record())
                    self.simulator.chain.persist_bootstrap()
                    self._checkpoint()

            while True:
                tx_sessions = [
                    s for s in sessions
                    if not s.done and isinstance(s.pending, list)
                ]
                if tx_sessions:
                    self._mine_round(tx_sessions)
                    self._checkpoint()
                    continue
                parked = [
                    s for s in sessions
                    if not s.done
                    and isinstance(s.pending, WaitForBatch)
                ]
                waiting = [
                    s for s in sessions
                    if not s.done and isinstance(s.pending, WaitUntil)
                ]
                # Flush a netted batch once it is full, or once no
                # other session can make progress (tail flush) —
                # transaction work and waits always drain first so a
                # full batch never starves a live challenge window.
                if parked and (len(parked) >= self.batch_size
                               or not waiting):
                    self._settle_batch(parked)
                    self._checkpoint()
                    continue
                if not waiting:
                    break
                target = min(s.pending.timestamp for s in waiting)
                self.simulator.advance_time_to(target)
                horizon = self.simulator.chain.next_timestamp()
                resumable = [s for s in waiting
                             if s.pending.timestamp <= horizon]
                for session in resumable:
                    self._resume(session, None)

        if self.store is not None:
            failed = any(s.error is not None for s in sessions)
            self.store.status.set(b"error" if failed else b"complete")
            self._checkpoint()
        errors = [s for s in sessions if s.error is not None]
        if errors:
            raise EngineError(
                f"{len(errors)} of {len(sessions)} sessions failed; "
                f"first: {errors[0].error!r}"
            ) from errors[0].error
        return self._metrics(started)

    # -- durable checkpoints -------------------------------------------

    def _config_record(self) -> dict[str, str]:
        """The flags a store is bound to; ``--resume`` must match."""
        apps = sorted({getattr(d, "app", type(d).__name__)
                       for d in self.drivers})
        return {
            "sessions": str(len(self.drivers)),
            "mining": self.mining,
            "settlement": self.settlement.name,
            "batch_size": str(self.batch_size),
            "apps": ",".join(apps),
        }

    def _checkpoint(self) -> None:
        """Commit one WAL transaction covering the last scheduling
        step (blocks, state, session journals, counters)."""
        if self.store is None:
            return
        self.store.stage_engine_meta(self)
        self.store.kv.commit()
        self._commits += 1
        if self._kill_after and self._commits >= self._kill_after:
            # Crash harness: die without cleanup, right here.
            if self._kill_mode == "torn":
                self.store.kv.put(b"__crash", b"torn", b"\xde\xad")
                self.store.kv.flush_uncommitted()
            os.kill(os.getpid(), signal.SIGKILL)

    def _note_session(self, session: _SessionState) -> None:
        """Stage a terminal summary or a batcher-park journal entry."""
        if self.store is None:
            return
        if session.done:
            self.store.stage_summary(session)
        elif isinstance(session.pending, WaitForBatch):
            self.store.stage_park(session.driver.session_id)

    def _resume(self, session: _SessionState, value: Any) -> None:
        """Advance one generator to its next yield (or completion)."""
        try:
            with obs.span(obs.names.SPAN_ENGINE_SESSION_STEP,
                          session=session.driver.session_id):
                if value is None and session.pending is None:
                    step = next(session.generator)
                else:
                    step = session.generator.send(value)
        except StopIteration:
            session.done = True
            session.pending = None
            self._note_session(session)
            return
        except Exception as exc:  # session died; surface after the run
            session.done = True
            session.pending = None
            session.error = exc
            self._note_session(session)
            return
        if isinstance(step, (WaitUntil, WaitForBatch)):
            session.pending = step
            self._note_session(session)
        elif isinstance(step, list) and step and \
                all(isinstance(i, TxIntent) for i in step):
            session.pending = step
        else:
            session.done = True
            session.pending = None
            session.error = EngineError(
                f"session {session.driver.session_id} yielded "
                f"{step!r}; expected a non-empty list of TxIntent, "
                "WaitUntil or WaitForBatch"
            )
            self._note_session(session)

    def _mine_round(self, tx_sessions: list[_SessionState]) -> None:
        """Queue every runnable session's batch, mine, hand back
        receipts."""
        sim = self.simulator
        self._count(obs.names.METRIC_ENGINE_ROUNDS)
        with obs.span(obs.names.SPAN_ENGINE_MINE_ROUND,
                      sessions=len(tx_sessions), mining=self.mining):
            for session in tx_sessions:
                session.intents = list(session.pending)
                session.tx_hashes = []
            if self.mining == "per-tx":
                # One block per transaction — the auto-mining regime.
                for session in tx_sessions:
                    for intent in session.intents:
                        session.tx_hashes.append(self._queue(intent))
                        sim.mine(gas_limit=self.block_gas_limit)
                        self._count(obs.names.METRIC_ENGINE_BLOCKS)
            else:
                for session in tx_sessions:
                    for intent in session.intents:
                        session.tx_hashes.append(self._queue(intent))
                self._mine_queued()
            for session in tx_sessions:
                receipts = []
                for intent, tx_hash in zip(session.intents,
                                           session.tx_hashes):
                    receipt = sim.get_receipt(tx_hash)
                    if not receipt.status:
                        session.done = True
                        session.pending = None
                        session.error = EngineError(
                            f"session {session.driver.session_id}: "
                            f"{intent.label or 'transaction'} reverted: "
                            f"{receipt.error or 'no reason'}"
                        )
                        self._note_session(session)
                        break
                    session.driver.protocol.ledger.record(
                        intent.stage, intent.label, receipt, intent.actor)
                    if obs.enabled():
                        obs.inc(obs.names.METRIC_CHAIN_FN_GAS,
                                receipt.gas_used,
                                fn=intent.label or "(tx)")
                    receipts.append(receipt)
                else:
                    self._count(obs.names.METRIC_ENGINE_TXS,
                                len(receipts))
                    if self.store is not None:
                        # Journal the round before resuming: the
                        # summary a terminal resume stages must land
                        # in the same transaction as its last round.
                        self.store.stage_round(
                            session.driver.session_id,
                            [(i.stage, i.label, i.actor, h)
                             for i, h in zip(session.intents,
                                             session.tx_hashes)])
                    self._resume(session, receipts)

    def _queue(self, intent: TxIntent) -> bytes:
        return self.simulator.send_transaction(
            intent.sender, intent.to, data=intent.data,
            value=intent.value, gas_limit=intent.gas_limit,
        )

    # -- netted batch settlement ---------------------------------------

    def _settle_batch(self, parked: list[_SessionState]) -> None:
        """Flush one netted batch: commit, police, open, dispute,
        finalize, then resume every member session.

        The whole batch settles with ONE ``commitBatch`` transaction
        (plus one aggregator deploy and one ``finalizeBatch``) carried
        by the batcher's own ledger.  Contested leaves are opened
        during the batch window and escalate through the unchanged
        per-session Dispute/Resolve machinery.
        """
        batcher = self.batcher
        if batcher is None:
            raise EngineError(
                "sessions are waiting for a batch but the engine has "
                "no netted settlement batcher")
        plan = batcher.prepare_batch(batcher.pending[:self.batch_size])
        states = {id(s.pending.ticket): s for s in parked}
        members = []
        for entry in plan.entries:
            state = states.get(id(entry))
            if state is None:
                raise EngineError(
                    "a batched session is not parked with the engine")
            members.append((entry, state))

        with obs.span(obs.names.SPAN_SETTLEMENT_COMMIT,
                      size=plan.size):
            [deploy_receipt] = self._mine_intents([TxIntent(
                sender=batcher.account, to=None, data=plan.init_code,
                gas_limit=AGGREGATOR_DEPLOY_GAS,
                label="deploy aggregator", actor=batcher.account.name,
            )])
            commit_fn = plan.abi.function("commitBatch")
            [commit_receipt] = self._mine_intents([TxIntent(
                sender=batcher.account,
                to=deploy_receipt.contract_address,
                data=commit_fn.encode_call([plan.tree.root, plan.size]),
                gas_limit=COMMIT_GAS,
                label="commitBatch", actor=batcher.account.name,
            )])
            batch = batcher.commit_prepared(
                plan, deploy_receipt, commit_receipt)

        # Police the batch: every participant checks the committed
        # leaf against the truth their session agreed off-chain, and
        # verifies the representative's signature over it.
        contested = []
        for entry, state in members:
            driver = state.driver
            commitment = entry.commitment
            honest = (entry.state.verify(entry.signer.address)
                      and results_equal(commitment.claim, driver.truth))
            if not honest:
                contested.append((entry, state,
                                  driver._pick_challenger()))

        # Contested leaves: reveal on the aggregator (inside the batch
        # window), then drive the existing dispute pair per session.
        for entry, state, challenger in contested:
            protocol = state.driver.protocol
            commitment = entry.commitment
            open_fn = batch.aggregator.abi.function("openLeaf")
            [open_receipt] = self._mine_intents([TxIntent(
                sender=challenger.account, to=batch.aggregator.address,
                data=open_fn.encode_call(
                    [commitment.leaf, commitment.index,
                     *commitment.proof]),
                gas_limit=OPEN_GAS,
                label="openLeaf", actor=challenger.name,
            )])
            protocol.record_leaf_opening(open_receipt, challenger.name)
        for entry, state, challenger in contested:
            self._pump(state,
                       state.driver.dispute_steps(challenger))

        # Wait out the window, close the batch, settle the members.
        with obs.span(obs.names.SPAN_SETTLEMENT_FINALIZE,
                      batch=batch.batch_id, size=batch.size):
            self.simulator.advance_time_to(batch.challenge_deadline)
            finalize_fn = batch.aggregator.abi.function("finalizeBatch")
            [finalize_receipt] = self._mine_intents([TxIntent(
                sender=batcher.account, to=batch.aggregator.address,
                data=finalize_fn.encode_call([]),
                gas_limit=FINALIZE_BATCH_GAS,
                label="finalizeBatch", actor=batcher.account.name,
            )])
            batcher.finalize_prepared(batch, finalize_receipt)

        for entry, state in members:
            self._resume(state, entry.commitment)

    def _mine_intents(self, intents: list[TxIntent]) -> list:
        """Queue and mine batch-level transactions (no session ledger).

        Gas accounting for these lands in the batcher's ledger (via
        ``commit_prepared``/``finalize_prepared``) or the session's
        (via ``record_leaf_opening``) — never here.  Any revert is a
        hard scheduling failure.
        """
        sim = self.simulator
        tx_hashes = []
        if self.mining == "per-tx":
            for intent in intents:
                tx_hashes.append(self._queue(intent))
                sim.mine(gas_limit=self.block_gas_limit)
                self._count(obs.names.METRIC_ENGINE_BLOCKS)
        else:
            for intent in intents:
                tx_hashes.append(self._queue(intent))
            self._mine_queued()
        receipts = []
        for intent, tx_hash in zip(intents, tx_hashes):
            receipt = sim.get_receipt(tx_hash)
            if not receipt.status:
                raise EngineError(
                    f"batch settlement: {intent.label or 'transaction'}"
                    f" reverted: {receipt.error or 'no reason'}")
            if obs.enabled():
                obs.inc(obs.names.METRIC_CHAIN_FN_GAS,
                        receipt.gas_used, fn=intent.label or "(tx)")
            receipts.append(receipt)
        self._count(obs.names.METRIC_ENGINE_TXS, len(receipts))
        return receipts

    def _mine_queued(self) -> None:
        """Mine every queued transaction into batched blocks."""
        sim = self.simulator
        while sim.pending():
            block = sim.mine(gas_limit=self.block_gas_limit)[0]
            self._count(obs.names.METRIC_ENGINE_BLOCKS)
            if not block.transactions:
                raise EngineError(
                    "mined an empty block while transactions are "
                    "pending — a queued transaction exceeds the "
                    "block gas limit"
                )

    def _pump(self, state: _SessionState,
              generator: DriverGenerator) -> None:
        """Drive a settlement sub-generator (the dispute pair) to
        completion, recording every mined intent into the session's
        ledger exactly as the main loop would."""
        sim = self.simulator
        try:
            step = next(generator)
        except StopIteration:
            return
        while True:
            if not (isinstance(step, list) and step
                    and all(isinstance(i, TxIntent) for i in step)):
                raise EngineError(
                    f"session {state.driver.session_id} yielded "
                    f"{step!r} during batch settlement; expected a "
                    "non-empty list of TxIntent")
            tx_hashes = []
            if self.mining == "per-tx":
                for intent in step:
                    tx_hashes.append(self._queue(intent))
                    sim.mine(gas_limit=self.block_gas_limit)
                    self._count(obs.names.METRIC_ENGINE_BLOCKS)
            else:
                for intent in step:
                    tx_hashes.append(self._queue(intent))
                self._mine_queued()
            receipts = []
            for intent, tx_hash in zip(step, tx_hashes):
                receipt = sim.get_receipt(tx_hash)
                if not receipt.status:
                    raise EngineError(
                        f"session {state.driver.session_id}: "
                        f"{intent.label or 'transaction'} reverted: "
                        f"{receipt.error or 'no reason'}")
                state.driver.protocol.ledger.record(
                    intent.stage, intent.label, receipt, intent.actor)
                if obs.enabled():
                    obs.inc(obs.names.METRIC_CHAIN_FN_GAS,
                            receipt.gas_used,
                            fn=intent.label or "(tx)")
                receipts.append(receipt)
            self._count(obs.names.METRIC_ENGINE_TXS, len(receipts))
            try:
                step = generator.send(receipts)
            except StopIteration:
                return

    def _metrics(self, started: float) -> EngineMetrics:
        """Finalise the run's counters and materialise the façade."""
        sessions = len(self.drivers)
        disputes = sum(1 for d in self.drivers if d.disputed)
        self._count(obs.names.METRIC_ENGINE_SESSIONS, sessions)
        self._count(obs.names.METRIC_ENGINE_DISPUTES, disputes)
        wall = time.perf_counter() - started
        self.registry.get(obs.names.METRIC_ENGINE_WALL_SECONDS).set(wall)
        if obs.enabled():
            obs.set_gauge(obs.names.METRIC_ENGINE_WALL_SECONDS, wall)
        batch_gas = self.batcher.total_gas() if self.batcher else 0
        return EngineMetrics.from_registry(
            self.registry, mining=self.mining,
            total_gas=sum(d.protocol.ledger.total()
                          for d in self.drivers) + batch_gas,
        )


_DRIVER_BY_APP = {
    "betting": BettingDriver,
    "escrow": EscrowDriver,
    "tender": TenderDriver,
}


def dishonest_session_indices(count: int, fraction: float) -> set[int]:
    """Deterministic, evenly spread session indices to make dishonest.

    ``fraction`` is rounded to a whole number of sessions; the indices
    are spread across the fleet so dishonesty is not clustered at the
    start (which would bias block packing in the comparison runs).
    """
    if not 0.0 <= fraction <= 1.0:
        raise EngineError(f"dishonest fraction {fraction} not in [0, 1]")
    k = round(count * fraction)
    if k <= 0:
        return set()
    return {(i * count) // k for i in range(k)}


def spawn_fleet(simulator: EthereumSimulator, count: int,
                app: str = "betting", dishonest_fraction: float = 0.0,
                funding: Optional[int] = None,
                dishonest_strategy: Strategy | str =
                Strategy.LIES_ABOUT_RESULT,
                remote_roles: Sequence[str] = (),
                **app_kwargs: Any) -> list[ProtocolDriver]:
    """Create ``count`` independent sessions of one app on one chain.

    Each session gets freshly funded accounts, so fleets scale past the
    simulator's pre-funded account list.  ``dishonest_fraction`` of the
    sessions get a representative playing ``dishonest_strategy``
    (default `Strategy.LIES_ABOUT_RESULT`, forcing those sessions
    through the Dispute/Resolve path).  This is the fault-injection
    seam the adversary subsystem plugs into: any
    :class:`~repro.core.participants.Strategy` (or its string value,
    e.g. ``"refuses-to-sign"``) can be injected here.

    ``remote_roles`` names roles (e.g. ``("bob",)``) whose Deploy/Sign
    signature comes from a separate participant process over the bus
    instead of being produced locally — the networked deployment's
    fleet shape.  Their accounts still use the same deterministic
    seeds, so the participant process derives identical keys.
    """
    if app not in _DRIVER_BY_APP:
        raise EngineError(
            f"unknown app {app!r}; choose from {sorted(_DRIVER_BY_APP)}")
    from repro.chain.simulator import DEFAULT_FUNDING

    if isinstance(dishonest_strategy, str):
        try:
            dishonest_strategy = Strategy(dishonest_strategy)
        except ValueError:
            raise EngineError(
                f"unknown dishonest strategy {dishonest_strategy!r}; "
                f"choose from {[s.value for s in Strategy]}"
            ) from None
    funding = DEFAULT_FUNDING if funding is None else funding
    liars = dishonest_session_indices(count, dishonest_fraction)
    drivers: list[ProtocolDriver] = []
    for index in range(count):
        strategy = (dishonest_strategy if index in liars
                    else Strategy.HONEST)

        def member(role: str, member_strategy: Strategy) -> Participant:
            account = simulator.create_account(
                f"fleet-{app}-{index}-{role}", funding=funding,
                name=f"s{index}-{role}")
            return Participant(account=account, name=f"s{index}-{role}",
                               strategy=member_strategy,
                               remote=role in remote_roles)

        if app == "betting":
            from repro.apps.betting import make_betting_protocol

            protocol = make_betting_protocol(
                simulator, member("alice", strategy),
                member("bob", Strategy.HONEST), **app_kwargs)
        elif app == "escrow":
            from repro.apps.escrow import make_escrow_protocol

            protocol = make_escrow_protocol(
                simulator, member("buyer", strategy),
                member("seller", Strategy.HONEST), **app_kwargs)
        else:
            from repro.apps.tender import make_tender_protocol

            protocol = make_tender_protocol(
                simulator, member("buyer", strategy),
                member("contractorA", Strategy.HONEST),
                member("contractorB", Strategy.HONEST), **app_kwargs)
        drivers.append(_DRIVER_BY_APP[app](protocol, session_id=index))
    return drivers
