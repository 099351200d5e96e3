"""Transaction pool.

Orders pending transactions the way miners do: by gas price
(descending), then arrival order; per-sender transactions are kept in
nonce order so account nonces always apply sequentially.  One
``(sender, nonce)`` slot holds at most one transaction —
replace-by-gas-price on admission, mirroring geth's ``PriceBump``
rule — and transactions whose nonce has already been consumed on
chain are evicted at batch-selection time.

Batch selection is a heap over per-sender queue heads: each sender's
lowest pending nonce competes on its gas-price/arrival key, and taking
it promotes the next *consecutive* nonce into the heap.  That is
O(n log n) in pool size — the linear rescan it replaced was O(n²) and
dominated block packing at fleet scale — and provably picks the same
transactions in the same order: at every step both algorithms choose
the best-keyed transaction among those that are their sender's lowest
pending nonce and still fit the remaining gas budget.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.chain.transaction import Transaction, TransactionError
from repro.crypto.keys import Address
from repro.exceptions import ReproError


class MempoolError(ReproError, ValueError):
    """Raised when a transaction cannot be admitted to the pool."""


@dataclass(order=True)
class _PoolEntry:
    sort_key: tuple[int, int] = field(compare=True)
    transaction: Transaction = field(compare=False)


class Mempool:
    """Pending transactions awaiting inclusion in a block."""

    def __init__(self) -> None:
        self._hashes: set[bytes] = set()
        self._slots: dict[tuple[bytes, int], _PoolEntry] = {}
        self._counter = itertools.count()
        #: Optional ``(event: bytes, tx_hash: bytes)`` callback staging
        #: admission/eviction/selection events into a durable audit
        #: journal (``ChainStore.journal_mempool``).  Audit-only: the
        #: engine commits at empty-pool boundaries, so recovery never
        #: replays these events.
        self.journal: Optional[Callable[[bytes, bytes], None]] = None

    def __len__(self) -> int:
        return len(self._slots)

    def _remove(self, entry: _PoolEntry) -> None:
        """Drop one entry from every index."""
        tx = entry.transaction
        self._hashes.discard(tx.hash)
        self._slots.pop((tx.sender.value, tx.nonce), None)

    def add(self, transaction: Transaction) -> None:
        """Admit a transaction (deduplicated by hash, sender checked).

        A transaction occupying an already-pending ``(sender, nonce)``
        slot replaces the incumbent only when it bids a strictly
        higher gas price; an equal-or-lower bid is rejected as an
        underpriced replacement.  Without this rule two same-slot
        transactions could coexist and the loser would linger in the
        pool forever — only one of them can ever mine.
        """
        if transaction.hash in self._hashes:
            raise MempoolError("transaction already in pool")
        try:
            transaction.sender  # force signature recovery
        except TransactionError as exc:
            raise MempoolError(
                f"rejecting unsignable transaction: {exc}") from exc
        slot = (transaction.sender.value, transaction.nonce)
        incumbent = self._slots.get(slot)
        if incumbent is not None:
            if transaction.gas_price <= incumbent.transaction.gas_price:
                raise MempoolError(
                    f"replacement transaction underpriced: nonce "
                    f"{transaction.nonce} is pending at gas price "
                    f"{incumbent.transaction.gas_price}, got "
                    f"{transaction.gas_price}"
                )
            self._remove(incumbent)
        entry = _PoolEntry(
            sort_key=(-transaction.gas_price, next(self._counter)),
            transaction=transaction,
        )
        self._hashes.add(transaction.hash)
        self._slots[slot] = entry
        if self.journal is not None:
            self.journal(b"add", transaction.hash)
        if obs.enabled():
            obs.set_gauge(obs.names.METRIC_MEMPOOL_DEPTH,
                          len(self._slots))

    def add_batch(self, transactions: list[Transaction]
                  ) -> list[tuple[Transaction, Optional[str]]]:
        """Admit many transactions, one :meth:`add` each, in input order.

        Returns ``(transaction, error_message_or_None)`` pairs in
        input order — ``None`` means admitted and now in the pool.
        """
        verdicts: list[tuple[Transaction, Optional[str]]] = []
        for tx in transactions:
            try:
                self.add(tx)
            except MempoolError as exc:
                verdicts.append((tx, str(exc)))
            else:
                verdicts.append((tx, None))
        return verdicts

    def evict_stale(self,
                    account_nonce: Callable[[Address], int]
                    ) -> list[Transaction]:
        """Drop transactions whose nonce the chain already consumed.

        ``account_nonce`` maps a sender address to its current account
        nonce; any pending transaction with a lower nonce can never
        mine again and is evicted.  Returns the evicted transactions.
        """
        stale = [
            entry for entry in self._slots.values()
            if entry.transaction.nonce
            < account_nonce(entry.transaction.sender)
        ]
        for entry in stale:
            self._remove(entry)
            if self.journal is not None:
                self.journal(b"evict", entry.transaction.hash)
        return [entry.transaction for entry in stale]

    def pop_batch(self, gas_limit: int,
                  account_nonce: Optional[Callable[[Address], int]] = None
                  ) -> list[Transaction]:
        """Take the best transactions fitting under ``gas_limit``.

        Per-sender nonce order is preserved: a later-nonce transaction
        never jumps ahead of an earlier one from the same sender, and
        a nonce gap parks the tail of that sender's queue.  When the
        miner supplies ``account_nonce`` (the chain's current
        account-nonce view), stale-nonce transactions are evicted
        before selection so they can neither block a sender's queue
        nor linger in the pool forever.
        """
        if account_nonce is not None:
            self.evict_stale(account_nonce)
        chosen: list[Transaction] = []
        gas_budget = gas_limit

        # Per-sender queues, highest nonce first so .pop() yields the
        # next-lowest pending nonce.
        queues: dict[bytes, list[_PoolEntry]] = {}
        for (sender, _nonce), entry in self._slots.items():
            queues.setdefault(sender, []).append(entry)
        heads: list[tuple[tuple[int, int], bytes]] = []
        for sender, queue in queues.items():
            queue.sort(key=lambda e: e.transaction.nonce, reverse=True)
            heads.append((queue[-1].sort_key, sender))
        heapq.heapify(heads)

        while heads:
            _, sender = heapq.heappop(heads)
            queue = queues[sender]
            tx = queue[-1].transaction
            if tx.gas_limit > gas_budget:
                # The budget only shrinks, so this head can never fit
                # again — and its later nonces may not overtake it.
                continue
            queue.pop()
            chosen.append(tx)
            gas_budget -= tx.gas_limit
            self._hashes.discard(tx.hash)
            del self._slots[(sender, tx.nonce)]
            if queue and queue[-1].transaction.nonce == tx.nonce + 1:
                heapq.heappush(heads, (queue[-1].sort_key, sender))
        if self.journal is not None:
            for tx in chosen:
                self.journal(b"pop", tx.hash)
        if obs.enabled():
            obs.observe(obs.names.METRIC_MEMPOOL_BATCH_TXS, len(chosen))
            obs.set_gauge(obs.names.METRIC_MEMPOOL_DEPTH,
                          len(self._slots))
        return chosen

    def clear(self) -> None:
        """Drop every pending transaction."""
        if self.journal is not None and self._slots:
            self.journal(b"clear", b"")
        self._hashes.clear()
        self._slots.clear()

    def pending(self) -> list[Transaction]:
        """Snapshot of pending transactions (pool order)."""
        return [entry.transaction
                for entry in sorted(self._slots.values())]
