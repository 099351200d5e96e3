"""Mempool ordering and admission."""

import pytest

from repro.chain.mempool import Mempool, MempoolError
from repro.chain.transaction import Transaction
from repro.crypto.keys import PrivateKey

KEY_A = PrivateKey.from_seed("pool-a")
KEY_B = PrivateKey.from_seed("pool-b")
DEST = PrivateKey.from_seed("pool-dest").address


def _tx(key, nonce, gas_price=1, gas_limit=21_000):
    return Transaction.create_signed(
        private_key=key, nonce=nonce, to=DEST, value=1,
        gas_limit=gas_limit, gas_price=gas_price,
    )


def test_add_and_pop():
    pool = Mempool()
    tx = _tx(KEY_A, 0)
    pool.add(tx)
    assert len(pool) == 1
    assert pool.pop_batch(1_000_000) == [tx]
    assert len(pool) == 0


def test_duplicate_rejected():
    pool = Mempool()
    tx = _tx(KEY_A, 0)
    pool.add(tx)
    with pytest.raises(MempoolError):
        pool.add(tx)


def test_ordered_by_gas_price():
    pool = Mempool()
    cheap = _tx(KEY_A, 0, gas_price=1)
    pricey = _tx(KEY_B, 0, gas_price=10)
    pool.add(cheap)
    pool.add(pricey)
    assert pool.pop_batch(1_000_000) == [pricey, cheap]


def test_nonce_order_preserved_per_sender():
    pool = Mempool()
    first = _tx(KEY_A, 0, gas_price=1)
    second = _tx(KEY_A, 1, gas_price=100)  # higher price, later nonce
    pool.add(first)
    pool.add(second)
    batch = pool.pop_batch(1_000_000)
    assert batch.index(first) < batch.index(second)


def test_gas_limit_respected():
    pool = Mempool()
    pool.add(_tx(KEY_A, 0, gas_limit=30_000))
    pool.add(_tx(KEY_B, 0, gas_limit=30_000))
    batch = pool.pop_batch(40_000)
    assert len(batch) == 1
    assert len(pool) == 1  # the other stays queued


def test_pending_view_and_clear():
    pool = Mempool()
    pool.add(_tx(KEY_A, 0))
    assert len(pool.pending()) == 1
    pool.clear()
    assert len(pool) == 0


# -- (sender, nonce) slot hygiene -----------------------------------------


def test_same_slot_replaced_by_higher_gas_price():
    """Two txs with one (sender, nonce) never coexist: the higher bid
    replaces the incumbent (the regression for the pool leak)."""
    pool = Mempool()
    loser = _tx(KEY_A, 0, gas_price=1, gas_limit=21_000)
    winner = _tx(KEY_A, 0, gas_price=5, gas_limit=30_000)
    pool.add(loser)
    pool.add(winner)
    assert len(pool) == 1
    assert pool.pop_batch(1_000_000) == [winner]
    assert len(pool) == 0  # no orphaned sibling left behind


def test_same_slot_underpriced_replacement_rejected():
    pool = Mempool()
    pool.add(_tx(KEY_A, 0, gas_price=5))
    with pytest.raises(MempoolError, match="underpriced"):
        pool.add(_tx(KEY_A, 0, gas_price=5, gas_limit=30_000))
    with pytest.raises(MempoolError, match="underpriced"):
        pool.add(_tx(KEY_A, 0, gas_price=1, gas_limit=30_000))
    assert len(pool) == 1


def test_replacement_slot_freed_after_pop():
    """Once the slot's transaction mined, a same-nonce resubmission is
    admitted again without tripping the replacement rule."""
    pool = Mempool()
    pool.add(_tx(KEY_A, 0, gas_price=5))
    pool.pop_batch(1_000_000)
    pool.add(_tx(KEY_A, 0, gas_price=1, gas_limit=30_000))
    assert len(pool) == 1


def test_stale_nonces_evicted_during_pop_batch():
    """A transaction below the account nonce can never mine; the miner
    evicts it at selection time instead of leaving it forever."""
    pool = Mempool()
    stale = _tx(KEY_A, 0, gas_price=100)
    live = _tx(KEY_A, 3, gas_price=1)
    pool.add(stale)
    pool.add(live)
    # The chain says KEY_A's account nonce is already 3.
    batch = pool.pop_batch(1_000_000, account_nonce=lambda addr: 3)
    assert batch == [live]
    assert len(pool) == 0  # the stale tx was evicted, not retained


def test_evict_stale_returns_the_victims():
    pool = Mempool()
    stale = _tx(KEY_A, 1)
    fresh = _tx(KEY_B, 0)
    pool.add(stale)
    pool.add(fresh)
    evicted = pool.evict_stale(
        lambda addr: 2 if addr == KEY_A.address else 0)
    assert evicted == [stale]
    assert pool.pending() == [fresh]


def test_add_batch_verdicts_cover_all_rejection_shapes():
    import dataclasses

    from repro.crypto.secp256k1 import N

    pool = Mempool()
    first = _tx(KEY_A, 0, gas_price=5)
    underpriced = _tx(KEY_A, 0, gas_price=4)  # lower bid: rejected
    valid = _tx(KEY_B, 1)
    bad = dataclasses.replace(valid, s=N - valid.s)  # EIP-2 high-s twin
    fine = _tx(KEY_B, 0)
    verdicts = pool.add_batch([first, underpriced, bad, fine])
    assert [tx for tx, _ in verdicts] == [first, underpriced, bad, fine]
    errors = [error for _, error in verdicts]
    assert errors[0] is None
    assert "underpriced" in errors[1]
    assert "non-canonical" in errors[2]
    assert errors[3] is None
    assert len(pool) == 2
