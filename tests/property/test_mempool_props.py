"""Property test for ``Mempool.pop_batch`` batch selection.

The heap-based selection must pick the same transactions in the same
order as the O(n²) scan-restart algorithm it replaced, which stays
here as the oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain import Mempool, Transaction
from repro.crypto.keys import PrivateKey

_KEYS = [PrivateKey.from_seed(f"pool-prop-{i}") for i in range(4)]
_DEST = PrivateKey.from_seed("pool-prop-dest").address


def _reference_pop_batch(entries, gas_limit):
    """The scan-restart selection the heap replaced, kept as the oracle."""
    entries = sorted(entries)
    chosen = []
    gas_budget = gas_limit
    min_nonce = {}
    for entry in entries:
        tx = entry.transaction
        key = tx.sender.value
        min_nonce[key] = min(min_nonce.get(key, tx.nonce), tx.nonce)
    progress = True
    while progress:
        progress = False
        for index, entry in enumerate(entries):
            tx = entry.transaction
            key = tx.sender.value
            if tx.gas_limit > gas_budget:
                continue
            if tx.nonce != min_nonce[key]:
                continue
            chosen.append(tx)
            gas_budget -= tx.gas_limit
            min_nonce[key] = tx.nonce + 1
            del entries[index]
            progress = True
            break
    return chosen


# (sender_index, nonce, gas_price, gas_limit) tuples; duplicates of a
# (sender, nonce) slot are skipped rather than replaced so both
# algorithms see the identical pool.
_pool_specs = st.lists(
    st.tuples(st.integers(0, len(_KEYS) - 1),
              st.integers(0, 4),
              st.integers(1, 5),
              st.sampled_from([21_000, 40_000, 90_000])),
    min_size=1, max_size=14,
)


@settings(max_examples=50, deadline=None)
@given(specs=_pool_specs,
       gas_limit=st.sampled_from([60_000, 130_000, 400_000]))
def test_heap_pop_batch_matches_scan_restart_oracle(specs, gas_limit):
    pool = Mempool()
    seen = set()
    for sender, nonce, gas_price, tx_gas in specs:
        if (sender, nonce) in seen:
            continue
        seen.add((sender, nonce))
        pool.add(Transaction.create_signed(
            private_key=_KEYS[sender], nonce=nonce, to=_DEST, value=1,
            gas_limit=tx_gas, gas_price=gas_price))
    oracle = _reference_pop_batch(
        list(pool._slots.values()), gas_limit)
    batch = pool.pop_batch(gas_limit)
    assert [tx.hash for tx in batch] == [tx.hash for tx in oracle]
    # Everything not chosen is still pending.
    assert len(pool) == len(seen) - len(batch)
