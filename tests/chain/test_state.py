"""Journaled world state: snapshot/revert correctness."""

import pytest

from repro.chain.state import WorldState
from repro.crypto.keys import Address

A = Address.from_int(1)
B = Address.from_int(2)


def test_defaults_for_unknown_account():
    state = WorldState()
    assert state.get_balance(A) == 0
    assert state.get_nonce(A) == 0
    assert state.get_code(A) == b""
    assert state.get_storage(A, 0) == 0
    assert not state.account_exists(A)


def test_balance_set_get():
    state = WorldState()
    state.set_balance(A, 100)
    assert state.get_balance(A) == 100
    assert state.account_exists(A)


def test_negative_balance_rejected():
    state = WorldState()
    with pytest.raises(ValueError):
        state.set_balance(A, -1)


def test_nonce_increment():
    state = WorldState()
    state.increment_nonce(A)
    state.increment_nonce(A)
    assert state.get_nonce(A) == 2


def test_storage_zero_values_pruned():
    state = WorldState()
    state.set_storage(A, 5, 9)
    state.set_storage(A, 5, 0)
    assert state.get_storage(A, 5) == 0


def test_revert_balance():
    state = WorldState()
    state.set_balance(A, 10)
    snap = state.snapshot()
    state.set_balance(A, 99)
    state.set_balance(B, 5)
    state.revert_to(snap)
    assert state.get_balance(A) == 10
    assert state.get_balance(B) == 0
    assert not state.account_exists(B)


def test_revert_storage_and_code():
    state = WorldState()
    state.set_code(A, b"\x01")
    state.set_storage(A, 1, 11)
    snap = state.snapshot()
    state.set_code(A, b"\x02")
    state.set_storage(A, 1, 22)
    state.set_storage(A, 2, 33)
    state.revert_to(snap)
    assert state.get_code(A) == b"\x01"
    assert state.get_storage(A, 1) == 11
    assert state.get_storage(A, 2) == 0


def test_nested_snapshots():
    state = WorldState()
    state.set_balance(A, 1)
    outer = state.snapshot()
    state.set_balance(A, 2)
    inner = state.snapshot()
    state.set_balance(A, 3)
    state.revert_to(inner)
    assert state.get_balance(A) == 2
    state.revert_to(outer)
    assert state.get_balance(A) == 1


def test_discard_keeps_changes():
    state = WorldState()
    snap = state.snapshot()
    state.set_balance(A, 42)
    state.discard_snapshot(snap)
    assert state.get_balance(A) == 42


def test_revert_account_creation():
    state = WorldState()
    snap = state.snapshot()
    state.create_account(A)
    state.set_balance(A, 1)
    state.revert_to(snap)
    assert not state.account_exists(A)


def test_clear_journal_commits():
    state = WorldState()
    state.set_balance(A, 7)
    state.clear_journal()
    # Reverting to 0 after clear has nothing to undo.
    state.revert_to(0)
    assert state.get_balance(A) == 7


def test_state_root_changes_with_state():
    state = WorldState()
    empty_root = state.state_root()
    state.set_balance(A, 5)
    assert state.state_root() != empty_root


def test_state_root_deterministic_and_order_independent():
    one = WorldState()
    one.set_balance(A, 5)
    one.set_balance(B, 6)
    two = WorldState()
    two.set_balance(B, 6)
    two.set_balance(A, 5)
    assert one.state_root() == two.state_root()


def test_state_root_cache_invalidation():
    # The cached per-account digests must be evicted by every mutator
    # and by revert_to, or state_root() would return stale commitments.
    state = WorldState()
    state.set_balance(A, 5)
    state.set_code(A, b"\x60\x00")
    root = state.state_root()

    snap = state.snapshot()
    state.set_storage(A, 1, 2)
    assert state.state_root() != root
    state.revert_to(snap)
    assert state.state_root() == root

    state.set_code(A, b"\x60\x01")
    changed = state.state_root()
    assert changed != root

    fresh = WorldState()
    fresh.set_balance(A, 5)
    fresh.set_code(A, b"\x60\x01")
    assert fresh.state_root() == changed


def test_copy_is_deep():
    state = WorldState()
    state.set_balance(A, 5)
    state.set_storage(A, 1, 2)
    clone = state.copy()
    clone.set_balance(A, 99)
    clone.set_storage(A, 1, 77)
    assert state.get_balance(A) == 5
    assert state.get_storage(A, 1) == 2


def test_iter_accounts():
    state = WorldState()
    state.set_balance(A, 1)
    state.set_balance(B, 2)
    addresses = [address for address, __ in state.iter_accounts()]
    assert addresses == [A, B]


def test_account_empty_per_eip161():
    state = WorldState()
    state.create_account(A)
    assert not state.account_exists(A)  # empty account
    state.set_balance(A, 1)
    assert state.account_exists(A)


def test_copy_starts_with_empty_journal():
    """A copied state must not inherit its parent's undo journal.

    Regression test: journal entries describe mutations made to the
    parent, so a revert_to(0) on the copy must not undo (or corrupt)
    account data the copy never touched.
    """
    state = WorldState()
    state.set_balance(A, 5)
    state.set_storage(A, 1, 2)
    assert state.snapshot() > 0  # parent journal is non-empty

    clone = state.copy()
    assert clone.snapshot() == 0  # copy's journal starts empty

    # revert_to(0) on the fresh copy is a no-op, not a walk through
    # the parent's history.
    clone.revert_to(0)
    assert clone.get_balance(A) == 5
    assert clone.get_storage(A, 1) == 2

    # The copy's own mutations journal and revert independently.
    marker = clone.snapshot()
    clone.set_balance(A, 99)
    clone.revert_to(marker)
    assert clone.get_balance(A) == 5
    assert state.get_balance(A) == 5


# -- digest cache across snapshots ------------------------------------------


def _addr(n):
    return Address.from_int(n)


def _fresh_root(state):
    """Recompute the state root with every digest cache cold."""
    clone = state.copy()
    clone._digests.clear()
    clone._code_hashes.clear()
    return clone.state_root()


def test_digest_cache_correct_across_snapshots_and_commits():
    state = WorldState()
    for n in range(1, 5):
        state.set_balance(_addr(n), n * 100)
    state.clear_journal()
    root_before = state.state_root()  # warm the per-account digests

    snap = state.snapshot()
    state.set_balance(_addr(1), 1)
    state.set_storage(_addr(3), 7, 42)
    state.set_code(_addr(4), b"\x00")

    committed_root = state.state_root()
    assert committed_root != root_before
    assert committed_root == _fresh_root(state)

    # A reverted frame must leave no digest residue.
    state.revert_to(snap)
    assert state.state_root() == root_before
    assert state.state_root() == _fresh_root(state)


def test_digest_cache_interleaved_commit_revert_commit():
    state = WorldState()
    state.set_balance(_addr(1), 500)
    state.clear_journal()
    state.state_root()

    outer = state.snapshot()
    state.add_balance(_addr(1), 10)
    inner = state.snapshot()
    state.add_balance(_addr(1), 5)
    assert state.get_balance(_addr(1)) == 515
    assert state.state_root() == _fresh_root(state)

    state.revert_to(inner)
    assert state.get_balance(_addr(1)) == 510
    assert state.state_root() == _fresh_root(state)

    state.revert_to(outer)
    assert state.get_balance(_addr(1)) == 500
    assert state.state_root() == _fresh_root(state)


def test_committed_write_persists_after_journal_clear():
    state = WorldState()
    state.set_balance(_addr(1), 100)
    state.clear_journal()
    state.state_root()
    state.set_balance(_addr(1), 60)
    state.clear_journal()  # the per-transaction commit barrier
    assert state.get_balance(_addr(1)) == 60
    assert state.state_root() == _fresh_root(state)
