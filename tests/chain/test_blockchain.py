"""Blockchain: mining, receipts, gas accounting, time."""

import pytest

from repro.chain.blockchain import Blockchain, ChainError
from repro.chain.transaction import Transaction
from repro.crypto.keys import PrivateKey

KEY = PrivateKey.from_seed("chain-user")
DEST = PrivateKey.from_seed("chain-dest").address


def _chain_with_funds() -> Blockchain:
    chain = Blockchain()
    chain.state.add_balance(KEY.address, 10 ** 20)
    chain.state.clear_journal()
    return chain


def _transfer(nonce=0, value=1_000, gas_price=1):
    return Transaction.create_signed(
        private_key=KEY, nonce=nonce, to=DEST, value=value,
        gas_limit=30_000, gas_price=gas_price,
    )


def test_genesis_block():
    chain = Blockchain()
    assert chain.latest_block.number == 0
    assert chain.latest_block.header.parent_hash == b"\x00" * 32


def test_mine_empty_block():
    chain = Blockchain()
    block = chain.mine_block()
    assert block.number == 1
    assert block.gas_used == 0
    assert block.header.parent_hash == chain.blocks[0].hash


def test_timestamps_advance_by_interval():
    chain = Blockchain()
    t0 = chain.latest_block.timestamp
    block = chain.mine_block()
    assert block.timestamp == t0 + chain.block_interval


def test_increase_time_warps_next_block():
    chain = Blockchain()
    t0 = chain.latest_block.timestamp
    chain.increase_time(5_000)
    block = chain.mine_block()
    assert block.timestamp == t0 + chain.block_interval + 5_000
    # The warp is consumed, not repeated.
    second = chain.mine_block()
    assert second.timestamp == block.timestamp + chain.block_interval


def test_increase_time_rejects_negative():
    with pytest.raises(ChainError):
        Blockchain().increase_time(-1)


def test_transfer_transaction_lifecycle():
    chain = _chain_with_funds()
    tx = _transfer()
    tx_hash = chain.send_transaction(tx)
    block = chain.mine_block()
    assert len(block.transactions) == 1
    receipt = chain.get_receipt(tx_hash)
    assert receipt.status
    assert receipt.gas_used == 21_000
    assert chain.state.get_balance(DEST) == 1_000


def test_miner_collects_fees():
    chain = _chain_with_funds()
    chain.send_transaction(_transfer(gas_price=3))
    chain.mine_block()
    assert chain.state.get_balance(chain.coinbase) == 21_000 * 3


def test_sender_pays_value_plus_gas():
    chain = _chain_with_funds()
    before = chain.state.get_balance(KEY.address)
    chain.send_transaction(_transfer(value=500, gas_price=2))
    chain.mine_block()
    after = chain.state.get_balance(KEY.address)
    assert before - after == 500 + 21_000 * 2


def test_nonce_gap_transaction_dropped():
    chain = _chain_with_funds()
    bad = _transfer(nonce=5)
    tx_hash = chain.send_transaction(bad)
    chain.mine_block()
    with pytest.raises(ChainError, match="dropped"):
        chain.get_receipt(tx_hash)


def test_unknown_receipt_raises():
    with pytest.raises(ChainError):
        Blockchain().get_receipt(b"\x00" * 32)


def test_sequential_nonces_in_one_block():
    chain = _chain_with_funds()
    hashes = [chain.send_transaction(_transfer(nonce=n)) for n in range(3)]
    chain.mine_block()
    for tx_hash in hashes:
        assert chain.get_receipt(tx_hash).status
    assert chain.state.get_nonce(KEY.address) == 3


def test_get_block_bounds():
    chain = Blockchain()
    chain.mine_block()
    assert chain.get_block(1).number == 1
    with pytest.raises(ChainError):
        chain.get_block(5)


def test_total_gas_used_accumulates():
    chain = _chain_with_funds()
    chain.send_transaction(_transfer(nonce=0))
    chain.mine_block()
    chain.send_transaction(_transfer(nonce=1))
    chain.mine_block()
    assert chain.total_gas_used() == 42_000


def test_state_root_recorded_in_header():
    chain = _chain_with_funds()
    chain.send_transaction(_transfer())
    block = chain.mine_block()
    assert block.header.state_root == chain.state.state_root()


def test_block_hash_chain_integrity():
    chain = _chain_with_funds()
    for __ in range(3):
        chain.mine_block()
    for child, parent in zip(chain.blocks[1:], chain.blocks):
        assert child.header.parent_hash == parent.hash


def test_send_transactions_matches_per_transaction_sends():
    keys = [PrivateKey.from_seed(f"batch-sender-{i}") for i in range(5)]

    def submit(batched):
        chain = Blockchain()
        for key in keys:
            chain.state.set_balance(key.address, 10 ** 20)
        chain.state.clear_journal()
        txs = [Transaction.create_signed(
            private_key=key, nonce=0, to=DEST, value=1,
            gas_limit=21_000) for key in keys]
        if batched:
            hashes = chain.send_transactions(txs)
        else:
            hashes = [chain.send_transaction(tx) for tx in txs]
        return hashes, chain.mine_block()

    one_by_one_hashes, one_by_one_block = submit(False)
    batch_hashes, batch_block = submit(True)
    assert batch_hashes == one_by_one_hashes
    assert batch_block.hash == one_by_one_block.hash
    assert batch_block.receipts == one_by_one_block.receipts
    assert len(batch_block.transactions) == len(keys)
