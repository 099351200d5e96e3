"""The blockchain: genesis, mining, receipts, chain queries.

A deterministic single-node chain.  Blocks are produced on demand
(``mine_block``), which is how test networks like ganache behave and is
exactly what the paper's protocol needs: transaction ordering, block
timestamps for the T0..T3 deadlines, and per-transaction gas receipts.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.crypto.keys import Address
from repro.chain.block import Block, BlockHeader, transactions_root
from repro.chain.mempool import Mempool
from repro.chain.processor import InvalidTransaction, apply_transaction
from repro.chain.receipt import Receipt
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.evm.vm import BlockContext
from repro.exceptions import ReproError

_GENESIS_PARENT = b"\x00" * 32
DEFAULT_BLOCK_GAS_LIMIT = 8_000_000
DEFAULT_BLOCK_INTERVAL = 15  # seconds, mainnet-like


class ChainError(ReproError, ValueError):
    """Raised for chain-level failures (unknown blocks, bad queries)."""


class Blockchain:
    """An append-only chain of blocks over a journaled world state."""

    def __init__(self, coinbase: Optional[Address] = None,
                 genesis_timestamp: int = 1_550_000_000,
                 block_gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT,
                 block_interval: int = DEFAULT_BLOCK_INTERVAL,
                 evm_jit: Optional[bool] = None) -> None:
        self.state = WorldState()
        self.mempool = Mempool()
        self.coinbase = coinbase or Address.from_int(0xC0FFEE)
        self.block_gas_limit = block_gas_limit
        self.block_interval = block_interval
        #: Tri-state EVM JIT override threaded into every execution
        #: (None = the module-level default, see ``repro.evm.jit``).
        self.evm_jit = evm_jit
        self._receipts: dict[bytes, Receipt] = {}
        self._dropped: dict[bytes, str] = {}
        self._store = None
        genesis_header = BlockHeader(
            number=0,
            parent_hash=_GENESIS_PARENT,
            state_root=self.state.state_root(),
            timestamp=genesis_timestamp,
            miner=self.coinbase,
            gas_limit=block_gas_limit,
            gas_used=0,
            transactions_root=transactions_root([]),
        )
        self.blocks: list[Block] = [Block(header=genesis_header)]
        self._time_offset = 0

    # -- durable store ------------------------------------------------------

    def attach_store(self, store) -> None:
        """Wire a :class:`~repro.chain.store.ChainStore` through the
        chain: world state persists at block boundaries, every mined
        block/receipt is staged, and the mempool journals admission
        events.  Staged writes become durable when the *caller* (the
        engine) commits the store — the chain itself never commits, so
        one round's blocks, receipts and state land atomically.
        """
        self._store = store
        self.state.attach_store(store)
        self.mempool.journal = store.journal_mempool

    def persist_bootstrap(self) -> None:
        """Stage the full current chain into a freshly attached store."""
        store = self._store
        for block in self.blocks:
            store.stage_block(block)
        for tx_hash, reason in self._dropped.items():
            store.dropped[tx_hash] = reason
        store.time_offset.set(self._time_offset)
        self.state.persist_all()

    def restore_from_store(self) -> None:
        """Reset chain, receipts, clock and state to the store's
        committed contents (crash recovery)."""
        store = self._store
        self.blocks = store.load_blocks()
        if not self.blocks:
            raise ChainError("the store holds no blocks — nothing to "
                             "restore (was the run ever bootstrapped?)")
        self._receipts = store.load_receipts()
        self._dropped = store.load_dropped()
        self._time_offset = store.time_offset.get(0)
        # Every store commit happens with an empty pool (each round
        # mines everything it queued), so recovery starts empty.
        self.mempool.clear()
        self.state.restore_from_store()

    # -- time ---------------------------------------------------------------

    @property
    def latest_block(self) -> Block:
        """The most recently mined block (the genesis block at start)."""
        return self.blocks[-1]

    def next_timestamp(self) -> int:
        """Timestamp the next mined block will carry."""
        return (self.latest_block.timestamp + self.block_interval
                + self._time_offset)

    def increase_time(self, seconds: int) -> None:
        """Warp the clock forward (ganache ``evm_increaseTime``)."""
        if seconds < 0:
            raise ChainError("time can only move forward")
        self._time_offset += seconds

    # -- transactions ----------------------------------------------------------

    def send_transaction(self, transaction: Transaction) -> bytes:
        """Queue a signed transaction; returns its hash."""
        self.mempool.add(transaction)
        return transaction.hash

    def send_transactions(self, transactions: list[Transaction]
                          ) -> list[bytes]:
        """Queue many signed transactions in input order.

        Returns the hashes of the admitted transactions; rejected
        ones (bad signatures, underpriced replacements) are silently
        dropped, mirroring what a real node's gossip layer does.
        """
        verdicts = self.mempool.add_batch(transactions)
        return [tx.hash for tx, error in verdicts if error is None]

    def block_context(self, timestamp: Optional[int] = None,
                      number: Optional[int] = None) -> BlockContext:
        """Environment for executing against the (pending) next block."""
        return BlockContext(
            coinbase=self.coinbase,
            timestamp=timestamp if timestamp is not None else self.next_timestamp(),
            number=number if number is not None else self.latest_block.number + 1,
            gas_limit=self.block_gas_limit,
            block_hash_fn=self._block_hash,
        )

    def _block_hash(self, number: int) -> bytes:
        if 0 <= number < len(self.blocks):
            return self.blocks[number].hash
        return b"\x00" * 32

    # -- block execution -------------------------------------------------------

    def mine_block(self, gas_limit: Optional[int] = None) -> Block:
        """Pack pending transactions into a new block and execute them.

        ``gas_limit`` overrides the chain's block gas limit for this
        one block — the batch-mining engine uses it to study packing
        density without reconfiguring the chain.
        """
        block_gas_limit = (gas_limit if gas_limit is not None
                           else self.block_gas_limit)
        timestamp = self.next_timestamp()
        self._time_offset = 0
        number = self.latest_block.number + 1
        context = self.block_context(timestamp=timestamp, number=number)

        with obs.span(obs.names.SPAN_CHAIN_MINE_BLOCK,
                      number=number) as mine_span:
            transactions = self.mempool.pop_batch(
                block_gas_limit, account_nonce=self.state.get_nonce)
            receipts: list[Receipt] = []
            included: list[Transaction] = []
            dropped_now: list[tuple[bytes, str]] = []
            cumulative_gas = 0
            for index, tx in enumerate(transactions):
                try:
                    outcome = apply_transaction(self.state, context, tx,
                                                jit=self.evm_jit)
                except InvalidTransaction as exc:
                    # Invalid at execution time (e.g. nonce gap): drop,
                    # record, and leave its index unused.
                    self._dropped[tx.hash] = str(exc)
                    dropped_now.append((tx.hash, str(exc)))
                    continue
                cumulative_gas += outcome.gas_used
                receipt = Receipt(
                    transaction_hash=tx.hash,
                    transaction_index=index,
                    block_number=number,
                    sender=tx.sender,
                    to=tx.to,
                    status=outcome.status,
                    gas_used=outcome.gas_used,
                    cumulative_gas_used=cumulative_gas,
                    contract_address=outcome.contract_address,
                    logs=outcome.logs,
                    error=outcome.error,
                )
                receipts.append(receipt)
                included.append(tx)
                self._receipts[tx.hash] = receipt
            mine_span.set_label(txs=len(included))
            obs.add_gas(cumulative_gas)
        if obs.enabled():
            obs.inc(obs.names.METRIC_CHAIN_BLOCKS)
            obs.inc(obs.names.METRIC_CHAIN_TXS, len(included))
            obs.observe(obs.names.METRIC_CHAIN_BLOCK_TXS, len(included))
            obs.observe(obs.names.METRIC_CHAIN_BLOCK_GAS, cumulative_gas)

        header = BlockHeader(
            number=number,
            parent_hash=self.latest_block.hash,
            state_root=self.state.state_root(),
            timestamp=timestamp,
            miner=self.coinbase,
            gas_limit=block_gas_limit,
            gas_used=cumulative_gas,
            transactions_root=transactions_root(included),
        )
        block = Block(
            header=header,
            transactions=tuple(included),
            receipts=tuple(receipts),
        )
        self.blocks.append(block)
        if self._store is not None:
            # Stage (not commit): the header's state_root was just
            # computed, so every dirty account's digest is fresh and
            # persists alongside its body.
            self._store.stage_block(block, dropped=dropped_now)
            self._store.time_offset.set(self._time_offset)
            self.state.persist_dirty()
        return block

    # -- queries ----------------------------------------------------------------

    def get_receipt(self, tx_hash: bytes) -> Receipt:
        """Receipt of a mined transaction (raises if unknown/dropped)."""
        receipt = self._receipts.get(tx_hash)
        if receipt is None:
            reason = self._dropped.get(tx_hash)
            if reason is not None:
                raise ChainError(f"transaction was dropped: {reason}")
            raise ChainError("unknown transaction hash")
        return receipt

    def get_block(self, number: int) -> Block:
        """The block at ``number``, or None when out of range."""
        if not 0 <= number < len(self.blocks):
            raise ChainError(f"no block number {number}")
        return self.blocks[number]

    def total_gas_used(self) -> int:
        """Sum of gas used by every mined transaction (miner workload)."""
        return sum(block.gas_used for block in self.blocks)
