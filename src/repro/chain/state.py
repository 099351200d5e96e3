"""Journaled world state.

:class:`WorldState` implements the :class:`repro.evm.vm.StateBackend`
protocol with a change journal so nested message frames can snapshot
and revert in O(changes) — the semantics the EVM's CALL/CREATE/REVERT
machinery depends on.  A state-root commitment (hash over the sorted
account contents) stands in for Ethereum's Merkle-Patricia trie root.
"""

from __future__ import annotations

from typing import Iterator

from repro import obs
from repro.crypto import rlp
from repro.crypto.keccak import keccak256
from repro.crypto.keys import Address
from repro.chain.account import Account

#: Hot-account cache size once a durable store is attached: accounts
#: beyond this are evicted (clean, digest kept) after each persist and
#: fault back in from the store on demand.
DEFAULT_HOT_ACCOUNTS = 1_024

# Journal entry tags.
_BALANCE = "balance"
_NONCE = "nonce"
_CODE = "code"
_STORAGE = "storage"
_CREATE = "create"


class WorldState:
    """All accounts, with snapshot/revert via an undo journal."""

    def __init__(self) -> None:
        self._accounts: dict[bytes, Account] = {}
        self._journal: list[tuple] = []
        # Content-derived caches so state_root() is O(dirty accounts),
        # not O(total code + storage): every mutation evicts the
        # touched account's leaf digest (and its code hash when the
        # code itself changes).
        self._digests: dict[bytes, bytes] = {}
        self._code_hashes: dict[bytes, bytes] = {}
        # Durable-store plumbing (inert until attach_store): mutated
        # accounts awaiting persistence and an LRU of hot accounts
        # (dict insertion order is the recency order).
        self._store = None
        self._dirty: set[bytes] = set()
        self._hot: dict[bytes, None] = {}
        self._hot_limit = DEFAULT_HOT_ACCOUNTS

    # -- durable store ---------------------------------------------------

    def attach_store(self, store,
                     hot_limit: int = DEFAULT_HOT_ACCOUNTS) -> None:
        """Back this state with a :class:`~repro.chain.store.ChainStore`.

        Writes stage into the store at :meth:`persist_dirty` /
        :meth:`persist_all` time (the chain calls them at block
        boundaries); reads fault evicted accounts back in on demand.
        """
        self._store = store
        self._hot_limit = max(1, hot_limit)

    def _note_dirty(self, raw: bytes) -> None:
        if self._store is not None:
            self._dirty.add(raw)

    def _touch(self, raw: bytes) -> None:
        self._hot.pop(raw, None)
        self._hot[raw] = None

    def _fault_in(self, raw: bytes) -> Account | None:
        """Load an evicted account back from the durable store."""
        account = self._store.accounts.get(raw)
        if account is None:
            return None
        self._accounts[raw] = account
        if obs.enabled():
            obs.inc(obs.names.METRIC_STORAGE_ACCOUNTS_FAULTED)
        return account

    # -- account access -------------------------------------------------

    def _get(self, address: Address) -> Account | None:
        account = self._accounts.get(address.value)
        if self._store is None:
            return account
        if account is None:
            account = self._fault_in(address.value)
        if account is not None:
            self._touch(address.value)
        return account

    def _get_or_create(self, address: Address) -> Account:
        account = self._get(address)
        if account is None:
            account = Account()
            self._accounts[address.value] = account
            self._journal.append((_CREATE, address.value))
            if self._store is not None:
                self._note_dirty(address.value)
                self._touch(address.value)
        return account

    def account_exists(self, address: Address) -> bool:
        """True if the account exists and is non-empty (EIP-161)."""
        account = self._get(address)
        return account is not None and not account.is_empty

    def create_account(self, address: Address) -> None:
        """Ensure an account record exists for ``address``."""
        self._get_or_create(address)

    def get_balance(self, address: Address) -> int:
        """Current wei balance of ``address`` (0 if absent)."""
        account = self._get(address)
        return account.balance if account else 0

    def set_balance(self, address: Address, value: int) -> None:
        """Overwrite the wei balance of ``address``."""
        if value < 0:
            raise ValueError("balance cannot go negative")
        account = self._get_or_create(address)
        self._journal.append((_BALANCE, address.value, account.balance))
        self._digests.pop(address.value, None)
        self._note_dirty(address.value)
        account.balance = value

    def add_balance(self, address: Address, delta: int) -> None:
        """Credit ``delta`` wei (convenience for mining rewards/funding)."""
        self.set_balance(address, self.get_balance(address) + delta)

    def get_nonce(self, address: Address) -> int:
        """Current nonce of ``address`` (0 if absent)."""
        account = self._get(address)
        return account.nonce if account else 0

    def increment_nonce(self, address: Address) -> None:
        """Bump the nonce of ``address`` by one."""
        account = self._get_or_create(address)
        self._journal.append((_NONCE, address.value, account.nonce))
        self._digests.pop(address.value, None)
        self._note_dirty(address.value)
        account.nonce += 1

    def set_nonce(self, address: Address, value: int) -> None:
        """Overwrite the nonce of ``address``."""
        if value < 0:
            raise ValueError("nonce cannot go negative")
        account = self._get_or_create(address)
        self._journal.append((_NONCE, address.value, account.nonce))
        self._digests.pop(address.value, None)
        self._note_dirty(address.value)
        account.nonce = value

    def get_code(self, address: Address) -> bytes:
        """Runtime bytecode at ``address`` (empty if absent)."""
        account = self._get(address)
        return account.code if account else b""

    def set_code(self, address: Address, code: bytes) -> None:
        """Install runtime bytecode at ``address``."""
        account = self._get_or_create(address)
        self._journal.append((_CODE, address.value, account.code))
        self._digests.pop(address.value, None)
        self._code_hashes.pop(address.value, None)
        self._note_dirty(address.value)
        account.code = code

    def get_storage(self, address: Address, key: int) -> int:
        """Storage slot ``key`` at ``address`` (0 if unset)."""
        account = self._get(address)
        if account is None:
            return 0
        return account.storage.get(key, 0)

    def set_storage(self, address: Address, key: int, value: int) -> None:
        """Write storage slot ``key`` at ``address``."""
        account = self._get_or_create(address)
        old = account.storage.get(key, 0)
        self._journal.append((_STORAGE, address.value, key, old))
        self._digests.pop(address.value, None)
        self._note_dirty(address.value)
        if value == 0:
            account.storage.pop(key, None)
        else:
            account.storage[key] = value

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> int:
        """Mark the current journal position."""
        return len(self._journal)

    def revert_to(self, snapshot_id: int) -> None:
        """Undo every change made after ``snapshot_id``."""
        while len(self._journal) > snapshot_id:
            entry = self._journal.pop()
            tag = entry[0]
            self._digests.pop(entry[1], None)
            if tag == _CODE or tag == _CREATE:
                self._code_hashes.pop(entry[1], None)
            if tag == _BALANCE:
                self._accounts[entry[1]].balance = entry[2]
            elif tag == _NONCE:
                self._accounts[entry[1]].nonce = entry[2]
            elif tag == _CODE:
                self._accounts[entry[1]].code = entry[2]
            elif tag == _STORAGE:
                __, raw, key, old = entry
                storage = self._accounts[raw].storage
                if old == 0:
                    storage.pop(key, None)
                else:
                    storage[key] = old
            elif tag == _CREATE:
                del self._accounts[entry[1]]

    def discard_snapshot(self, snapshot_id: int) -> None:
        """Accept changes since ``snapshot_id`` (journal kept for parents)."""
        # Entries must remain until the outermost frame commits, so this
        # is deliberately a no-op; clear_journal() trims per transaction.

    def clear_journal(self) -> None:
        """Drop undo history — call once per committed transaction."""
        self._journal.clear()

    # -- inspection ----------------------------------------------------------

    def iter_accounts(self) -> Iterator[tuple[Address, Account]]:
        """Iterate (address, account) pairs in insertion order."""
        for raw, account in self._accounts.items():
            yield Address(raw), account

    def _leaf_digest(self, raw: bytes, account: Account) -> bytes:
        """Hash of one account's full contents, cached until mutated."""
        digest = self._digests.get(raw)
        if digest is not None:
            return digest
        code_hash = self._code_hashes.get(raw)
        if code_hash is None:
            code_hash = keccak256(account.code)
            self._code_hashes[raw] = code_hash
        storage_items = [
            [key.to_bytes(32, "big"), value.to_bytes(32, "big")]
            for key, value in sorted(account.storage.items())
        ]
        digest = keccak256(rlp.encode([
            raw,
            account.nonce,
            account.balance,
            code_hash,
            storage_items,
        ]))
        self._digests[raw] = digest
        return digest

    def state_root(self) -> bytes:
        """Deterministic commitment over the full state.

        A hash over the RLP of sorted per-account digests — a stand-in
        for the Merkle-Patricia state root with the same commitment
        property.  Only accounts mutated since the previous call are
        re-hashed, so mining a block costs O(touched accounts), not
        O(world size).  Under a durable store the commitment spans the
        union of resident accounts and cached digests: an evicted
        account contributes its (by construction fresh) cached digest
        without being faulted back in.
        """
        keys = set(self._accounts) | set(self._digests)
        items = []
        for raw in sorted(keys):
            digest = self._digests.get(raw)
            if digest is None:
                digest = self._leaf_digest(raw, self._accounts[raw])
            items.append([raw, digest])
        return keccak256(rlp.encode(items))

    # -- persistence -----------------------------------------------------

    def persist_all(self) -> None:
        """Stage every resident account (and its digest) to the store.

        The bootstrap write when a fresh store is attached to an
        already-populated state (genesis accounts, fleet funding):
        after this, :meth:`persist_dirty` incrementality is sound
        because nothing pre-dates the store.
        """
        store = self._store
        for raw, account in self._accounts.items():
            store.accounts[raw] = account
            store.digests[raw] = self._leaf_digest(raw, account)
            self._touch(raw)
        self._dirty.clear()

    def persist_dirty(self) -> None:
        """Stage accounts mutated since the last persist, then evict.

        Called at block boundaries, *after* :meth:`state_root` — so
        every dirty account's leaf digest is freshly cached and is
        persisted alongside the account (recovery loads all digests and
        faults account bodies lazily).  Clean accounts beyond the hot
        limit are then evicted, oldest-touched first; their digests
        stay resident to keep :meth:`state_root` exact.
        """
        store = self._store
        for raw in sorted(self._dirty):
            account = self._accounts.get(raw)
            if account is None:
                continue  # creation reverted before the block closed
            store.accounts[raw] = account
            store.digests[raw] = self._leaf_digest(raw, account)
        self._dirty.clear()
        self._evict_cold()

    def _evict_cold(self) -> None:
        """Drop oldest-touched accounts beyond the hot limit."""
        if self._journal:
            # Undo records reference resident accounts by identity;
            # never evict under an open journal frame.
            return
        excess = len(self._accounts) - self._hot_limit
        if excess <= 0:
            return
        evicted = 0
        for raw in list(self._hot):
            if evicted >= excess:
                break
            account = self._accounts.get(raw)
            if account is None:
                self._hot.pop(raw, None)
                continue
            # Digest must outlive the account for state_root().
            self._leaf_digest(raw, account)
            del self._accounts[raw]
            self._hot.pop(raw, None)
            evicted += 1
        if evicted and obs.enabled():
            obs.inc(obs.names.METRIC_STORAGE_ACCOUNTS_EVICTED, evicted)

    def restore_from_store(self) -> None:
        """Reset to the store's committed state (crash recovery).

        Loads every persisted leaf digest — the full state commitment —
        and faults account bodies in lazily on first access.
        """
        store = self._store
        self._accounts.clear()
        self._journal.clear()
        self._digests.clear()
        self._code_hashes.clear()
        self._dirty.clear()
        self._hot.clear()
        for raw, digest in store.digests.items():
            self._digests[raw] = digest

    def copy(self) -> "WorldState":
        """Deep copy (used for read-only eth_call-style execution).

        The copy starts with an *empty* undo journal: journal entries
        describe mutations made to the parent, so carrying them over
        would let ``revert_to`` on the copy walk undo records for
        changes the copy never made.
        """
        clone = WorldState()
        clone._accounts = {
            raw: account.copy() for raw, account in self._accounts.items()
        }
        clone._digests = dict(self._digests)
        clone._code_hashes = dict(self._code_hashes)
        clone._journal.clear()
        # The clone may *read* through the store (fault-in) but is
        # never persisted: persist_dirty/persist_all only run on the
        # canonical chain state via the block-boundary hook.
        clone._store = self._store
        clone._hot_limit = self._hot_limit
        return clone
