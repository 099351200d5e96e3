"""The telemetry contract: every span and metric name, in one place.

``docs/observability.md`` documents each of these names; the docs CI
job (``tools/check_docs.py``) fails when a name listed here is missing
from that document, so the contract cannot silently drift.  Treat the
values as API: renaming one is a breaking change for every dashboard,
JSONL consumer, and benchmark that filters on it.

Instrumentation sites must import the constants rather than repeating
string literals — a typo then becomes an ``ImportError`` instead of a
silently unexported event.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Span names
# ---------------------------------------------------------------------------

#: Root span emitted by ``repro trace`` around one whole scenario.
SPAN_SCENARIO = "scenario.run"

#: Stage 1 — classify, split, pad and compile both halves.
SPAN_STAGE_SPLIT_GENERATE = "stage.split_generate"
#: Stage 2a — deploy the on-chain half (sync and deferred variants).
SPAN_STAGE_DEPLOY = "stage.deploy"
#: Stage 2b — the Whisper signature exchange.
SPAN_STAGE_SIGN = "stage.sign"
#: §IV security-deposit escrow (optional, between sign and submit).
SPAN_STAGE_DEPOSITS = "stage.deposits"
#: Stage 3a — the representative submits the (claimed) result.
SPAN_STAGE_SUBMIT = "stage.submit"
#: Stage 3b — honest participants police the submitted result.
SPAN_STAGE_CHALLENGE = "stage.challenge"
#: Stage 3c — the challenge window closes and the proposal is applied.
SPAN_STAGE_FINALIZE = "stage.finalize"
#: Stage 4 — reveal the signed copy and force the true result.
SPAN_STAGE_DISPUTE = "stage.dispute"

#: One private local execution of the off-chain contract.
SPAN_OFFCHAIN_EXECUTE = "offchain.execute"

#: One adversary scenario (fault injection + invariant check).
SPAN_ADVERSARY_SCENARIO = "adversary.scenario"

#: One whole :meth:`SessionEngine.run` fleet drive.
SPAN_ENGINE_RUN = "engine.run"
#: One queue-mine-resume round over the runnable sessions.
SPAN_ENGINE_MINE_ROUND = "engine.mine_round"
#: One driver-generator resumption (labelled with the session id).
SPAN_ENGINE_SESSION_STEP = "engine.session_step"

#: One netted batch commitment (aggregator deploy + ``commitBatch``).
SPAN_SETTLEMENT_COMMIT = "settlement.commit"
#: One leaf opening on the aggregator (dispute-via-opening entry).
SPAN_SETTLEMENT_OPEN = "settlement.open"
#: One batch finalization after its challenge window closed.
SPAN_SETTLEMENT_FINALIZE = "settlement.finalize"

#: One durable WAL transaction commit (storage layer).
SPAN_STORAGE_COMMIT = "storage.commit"
#: One snapshot compaction (WAL folded into ``snapshot.bin``).
SPAN_STORAGE_COMPACT = "storage.compact"
#: One engine recovery pass over a reopened ``--store`` directory.
SPAN_STORAGE_RECOVER = "storage.recover"

#: One synchronous wire request (sign, send, retry loop, response).
SPAN_NET_REQUEST = "net.client.request"
#: One command handled by a :class:`ChannelServer` (verify + execute).
SPAN_NET_NODE_SERVE = "net.node.serve"

#: One state-changing contract transaction (web3-style ``transact``).
SPAN_CHAIN_TX = "chain.tx"
#: One contract deployment through the simulator facade.
SPAN_CHAIN_DEPLOY = "chain.deploy"
#: One read-only ``eth_call`` against a state copy.
SPAN_CHAIN_CALL = "chain.call"
#: One mined block (covers executing every packed transaction).
SPAN_CHAIN_MINE_BLOCK = "chain.mine_block"

ALL_SPANS: tuple[str, ...] = (
    SPAN_SCENARIO,
    SPAN_STAGE_SPLIT_GENERATE,
    SPAN_STAGE_DEPLOY,
    SPAN_STAGE_SIGN,
    SPAN_STAGE_DEPOSITS,
    SPAN_STAGE_SUBMIT,
    SPAN_STAGE_CHALLENGE,
    SPAN_STAGE_FINALIZE,
    SPAN_STAGE_DISPUTE,
    SPAN_OFFCHAIN_EXECUTE,
    SPAN_ADVERSARY_SCENARIO,
    SPAN_ENGINE_RUN,
    SPAN_ENGINE_MINE_ROUND,
    SPAN_ENGINE_SESSION_STEP,
    SPAN_SETTLEMENT_COMMIT,
    SPAN_SETTLEMENT_OPEN,
    SPAN_SETTLEMENT_FINALIZE,
    SPAN_STORAGE_COMMIT,
    SPAN_STORAGE_COMPACT,
    SPAN_STORAGE_RECOVER,
    SPAN_NET_REQUEST,
    SPAN_NET_NODE_SERVE,
    SPAN_CHAIN_TX,
    SPAN_CHAIN_DEPLOY,
    SPAN_CHAIN_CALL,
    SPAN_CHAIN_MINE_BLOCK,
)

#: The four protocol stages every scenario trace must cover (the
#: acceptance gate of the observability layer).
PROTOCOL_STAGE_SPANS: tuple[str, ...] = (
    SPAN_STAGE_SPLIT_GENERATE,
    SPAN_STAGE_DEPLOY,
    SPAN_STAGE_SIGN,
    SPAN_STAGE_SUBMIT,
    SPAN_STAGE_CHALLENGE,
    SPAN_STAGE_FINALIZE,
    SPAN_STAGE_DISPUTE,
)

# ---------------------------------------------------------------------------
# Metric names
# ---------------------------------------------------------------------------

#: counter, label ``op`` — gas per opcode over every *mined* transaction,
#: including the pseudo-ops ``INTRINSIC``, ``REFUND`` and
#: ``UNATTRIBUTED``; the sum over all labels equals the sum of
#: ``receipt.gas_used`` (and hence the ``GasLedger`` total when every
#: mined transaction is ledger-recorded).
METRIC_EVM_GAS_BY_OPCODE = "evm.gas.by_opcode"
#: counter, label ``category`` — same gas, folded into the coarse
#: tracer categories (storage/call/create/...).
METRIC_EVM_GAS_BY_CATEGORY = "evm.gas.by_category"
#: counter, label ``op`` — executed-instruction counts per opcode.
METRIC_EVM_OPS = "evm.ops"
#: counter — total ``receipt.gas_used`` over profiled transactions.
METRIC_EVM_GAS_TOTAL = "evm.gas.total"
#: counter, label ``op`` — interpreter wall-clock seconds per opcode
#: over mined transactions (outer frame; CALL/CREATE steps carry their
#: children's time, mirroring the gas attribution).
METRIC_EVM_TIME_BY_OPCODE = "evm.time.by_opcode"
#: counter, label ``category`` — the same wall-clock seconds folded
#: into the coarse tracer categories.
METRIC_EVM_TIME_BY_CATEGORY = "evm.time.by_category"

#: gauge, label ``cache`` — cumulative hits of the EVM-side memo
#: caches (``analysis`` = the content-keyed ``CodeAnalysis`` LRU,
#: ``ecrecover`` = the signature-recovery LRU, ``keccak`` = the
#: small-input keccak256 memo).  Snapshot-style: refreshed by
#: ``obs.publish_cache_stats`` (telemetry close does this
#: automatically), so the exported value is a point-in-time reading
#: of each process-wide cache, not a delta.
METRIC_EVM_CACHE_HITS = "evm.cache.hits"
#: gauge, label ``cache`` — cumulative misses of the same caches.
METRIC_EVM_CACHE_MISSES = "evm.cache.misses"
#: gauge, label ``cache`` — current entry count of the same caches.
METRIC_EVM_CACHE_SIZE = "evm.cache.size"
#: gauge — bytecodes the JIT transpiler compiled to Python programs.
METRIC_EVM_JIT_PROGRAMS = "evm.cache.jit.programs"
#: gauge — basic blocks compiled across all JIT programs.
METRIC_EVM_JIT_BLOCKS = "evm.cache.jit.blocks"
#: gauge — bytecodes the transpiler gave up on (interpreter fallback).
METRIC_EVM_JIT_FAILURES = "evm.cache.jit.failures"
#: gauge, label ``mode`` — untraced EVM frame executions by how they
#: ran: ``compiled`` (JIT program), ``interpreted`` (warm-up or
#: disabled), ``bailout`` (a compiled run that fell back mid-frame).
METRIC_EVM_JIT_RUNS = "evm.cache.jit.runs"

#: counter — mined transactions.
METRIC_CHAIN_TXS = "chain.txs"
#: counter — mined blocks.
METRIC_CHAIN_BLOCKS = "chain.blocks"
#: histogram — transactions packed per mined block.
METRIC_CHAIN_BLOCK_TXS = "chain.block.txs"
#: histogram — gas used per mined block.
METRIC_CHAIN_BLOCK_GAS = "chain.block.gas"
#: counter, label ``fn`` — receipt gas attributed to named contract
#: functions (ABI name on the sync path, ledger label on the engine
#: path, ``(deploy)`` for contract creation).
METRIC_CHAIN_FN_GAS = "chain.fn.gas"
#: gauge — mempool depth after the last add/pop.
METRIC_MEMPOOL_DEPTH = "mempool.depth"
#: histogram — transactions taken per ``pop_batch`` call.
METRIC_MEMPOOL_BATCH_TXS = "mempool.batch.txs"

#: gauge — cumulative GLV endomorphism scalar decompositions performed
#: by the secp256k1 kernels in this process (one per variable-base
#: scalar multiplication on the fast path).
METRIC_CRYPTO_GLV_SPLITS = "crypto.glv.splits"

#: counter, label ``stage`` — every ``GasLedger`` record, keyed by the
#: protocol stage it was recorded under.  Always equals
#: ``GasLedger.total()`` summed over the ledgers that recorded while
#: telemetry was active.
METRIC_PROTOCOL_STAGE_GAS = "protocol.stage.gas"
#: counter — gas-equivalents burned privately off-chain (Fig. 1's
#: saved quantity); never part of any on-chain total.
METRIC_OFFCHAIN_GAS = "offchain.gas_equivalent"

#: counter — disputes rejected because ``block.timestamp`` had reached
#: ``challengeDeadline`` (the challenge window was already closed).
METRIC_CHALLENGE_LATE_DISPUTES = "protocol.challenge.late_disputes"
#: histogram — seconds of challenge window remaining when a dispute
#: was admitted (margin between the dispute block's timestamp and the
#: deadline).
METRIC_CHALLENGE_DEADLINE_MARGIN = \
    "protocol.challenge.deadline_margin_seconds"

#: counter, label ``strategy`` — adversary scenarios executed.
METRIC_ADVERSARY_SCENARIOS = "adversary.scenarios"
#: counter, label ``strategy`` — adversarial actions the protocol or
#: the chain rejected (reverts, pre-checks, validation failures).
METRIC_ADVERSARY_REJECTED = "adversary.rejected_actions"
#: counter — security deposits forfeited to a challenger during
#: adversary scenarios (the §IV monetary penalty firing).
METRIC_ADVERSARY_FORFEITS = "adversary.deposit_forfeits"

#: counter — netted batches committed on-chain.
METRIC_SETTLEMENT_BATCHES = "settlement.batches"
#: counter — sessions settled through a netted batch commitment.
METRIC_SETTLEMENT_BATCHED_SESSIONS = "settlement.batched_sessions"
#: histogram — sessions per committed batch.
METRIC_SETTLEMENT_BATCH_SIZE = "settlement.batch.size"
#: counter — batch-level on-chain gas the batcher paid (aggregator
#: deploy + ``commitBatch`` + ``finalizeBatch``); amortized over the
#: batch, never billed to a single session's ledger.
METRIC_SETTLEMENT_BATCH_GAS = "settlement.batch.gas"
#: counter — leaves opened on an aggregator (contested sessions
#: entering the dispute-via-opening path).
METRIC_SETTLEMENT_OPENINGS = "settlement.leaf_openings"

#: counter — WAL transactions durably committed.
METRIC_STORAGE_WAL_COMMITS = "storage.wal.commits"
#: counter — data records written into committed WAL transactions.
METRIC_STORAGE_WAL_RECORDS = "storage.wal.records"
#: counter — snapshot compactions (WAL folded and truncated).
METRIC_STORAGE_COMPACTIONS = "storage.compactions"
#: counter — clean hot accounts evicted from the in-memory LRU after
#: their state leaf digest was cached.
METRIC_STORAGE_ACCOUNTS_EVICTED = "storage.accounts.evicted"
#: counter — accounts faulted back in from the durable store.
METRIC_STORAGE_ACCOUNTS_FAULTED = "storage.accounts.faulted"
#: counter — sessions replayed live from their WAL journals during an
#: engine ``--resume`` (terminal sessions restore from summaries and
#: are not counted here).
METRIC_STORAGE_SESSIONS_REPLAYED = "storage.recover.sessions_replayed"

#: counter — wire requests a :class:`ChannelClient` completed
#: (one per command, however many retries it took).
METRIC_NET_REQUESTS = "net.client.requests"
#: counter — retransmissions after a timeout or connection error (a
#: request that succeeds first try contributes zero).
METRIC_NET_RETRIES = "net.client.retries"
#: histogram — wall-clock round-trip seconds per completed request.
METRIC_NET_RTT = "net.client.rtt_seconds"
#: counter — commands a :class:`ChannelServer` executed (first
#: deliveries only; redeliveries are counted separately).
METRIC_NET_COMMANDS = "net.server.commands"
#: counter — duplicate deliveries answered from the dedup window
#: instead of being re-executed (the idempotency contract firing).
METRIC_NET_REDELIVERIES = "net.server.redeliveries"

#: counter — sessions a :class:`SessionEngine` drove to completion.
METRIC_ENGINE_SESSIONS = "engine.sessions"
#: counter — sessions that settled through Dispute/Resolve.
METRIC_ENGINE_DISPUTES = "engine.disputes"
#: counter — blocks the engine itself scheduled.
METRIC_ENGINE_BLOCKS = "engine.blocks"
#: counter — transactions the engine itself queued and mined.
METRIC_ENGINE_TXS = "engine.txs"
#: counter — queue-mine-resume rounds the scheduler ran.
METRIC_ENGINE_ROUNDS = "engine.rounds"
#: gauge — wall-clock seconds of the last ``SessionEngine.run``.
METRIC_ENGINE_WALL_SECONDS = "engine.wall_seconds"

ALL_METRICS: tuple[str, ...] = (
    METRIC_EVM_GAS_BY_OPCODE,
    METRIC_EVM_GAS_BY_CATEGORY,
    METRIC_EVM_OPS,
    METRIC_EVM_GAS_TOTAL,
    METRIC_EVM_TIME_BY_OPCODE,
    METRIC_EVM_TIME_BY_CATEGORY,
    METRIC_EVM_CACHE_HITS,
    METRIC_EVM_CACHE_MISSES,
    METRIC_EVM_CACHE_SIZE,
    METRIC_EVM_JIT_PROGRAMS,
    METRIC_EVM_JIT_BLOCKS,
    METRIC_EVM_JIT_FAILURES,
    METRIC_EVM_JIT_RUNS,
    METRIC_CHAIN_TXS,
    METRIC_CHAIN_BLOCKS,
    METRIC_CHAIN_BLOCK_TXS,
    METRIC_CHAIN_BLOCK_GAS,
    METRIC_CHAIN_FN_GAS,
    METRIC_MEMPOOL_DEPTH,
    METRIC_MEMPOOL_BATCH_TXS,
    METRIC_CRYPTO_GLV_SPLITS,
    METRIC_PROTOCOL_STAGE_GAS,
    METRIC_OFFCHAIN_GAS,
    METRIC_CHALLENGE_LATE_DISPUTES,
    METRIC_CHALLENGE_DEADLINE_MARGIN,
    METRIC_ADVERSARY_SCENARIOS,
    METRIC_ADVERSARY_REJECTED,
    METRIC_ADVERSARY_FORFEITS,
    METRIC_SETTLEMENT_BATCHES,
    METRIC_SETTLEMENT_BATCHED_SESSIONS,
    METRIC_SETTLEMENT_BATCH_SIZE,
    METRIC_SETTLEMENT_BATCH_GAS,
    METRIC_SETTLEMENT_OPENINGS,
    METRIC_STORAGE_WAL_COMMITS,
    METRIC_STORAGE_WAL_RECORDS,
    METRIC_STORAGE_COMPACTIONS,
    METRIC_STORAGE_ACCOUNTS_EVICTED,
    METRIC_STORAGE_ACCOUNTS_FAULTED,
    METRIC_STORAGE_SESSIONS_REPLAYED,
    METRIC_NET_REQUESTS,
    METRIC_NET_RETRIES,
    METRIC_NET_RTT,
    METRIC_NET_COMMANDS,
    METRIC_NET_REDELIVERIES,
    METRIC_ENGINE_SESSIONS,
    METRIC_ENGINE_DISPUTES,
    METRIC_ENGINE_BLOCKS,
    METRIC_ENGINE_TXS,
    METRIC_ENGINE_ROUNDS,
    METRIC_ENGINE_WALL_SECONDS,
)

#: Pseudo-opcodes folded into :data:`METRIC_EVM_GAS_BY_OPCODE` so the
#: per-opcode decomposition sums exactly to receipt gas.
PSEUDO_OP_INTRINSIC = "INTRINSIC"
PSEUDO_OP_REFUND = "REFUND"
PSEUDO_OP_UNATTRIBUTED = "UNATTRIBUTED"
