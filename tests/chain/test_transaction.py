"""Signed transaction encoding and sender recovery."""

import pytest

from repro.chain.transaction import Transaction, TransactionError
from repro.crypto.keys import PrivateKey

KEY = PrivateKey.from_seed("tx-sender")
DEST = PrivateKey.from_seed("tx-dest").address


def _tx(**overrides):
    params = dict(private_key=KEY, nonce=0, to=DEST, value=100,
                  data=b"\x01\x02", gas_limit=50_000, gas_price=2)
    params.update(overrides)
    return Transaction.create_signed(**params)


def test_sender_recovery():
    assert _tx().sender == KEY.address


def test_encode_decode_round_trip():
    tx = _tx()
    decoded = Transaction.decode(tx.encode())
    assert decoded == tx
    assert decoded.sender == KEY.address


def test_create_transaction_has_no_to():
    tx = _tx(to=None, data=b"\x60\x00")
    assert tx.is_create
    decoded = Transaction.decode(tx.encode())
    assert decoded.to is None


def test_hash_changes_with_content():
    assert _tx().hash != _tx(value=101).hash


def test_hash_hex_prefixed():
    assert _tx().hash_hex.startswith("0x")


def test_upfront_cost():
    tx = _tx(value=100, gas_limit=50_000, gas_price=2)
    assert tx.upfront_cost() == 100 + 100_000


def test_tampered_value_changes_sender():
    tx = _tx()
    tampered = Transaction(
        nonce=tx.nonce, gas_price=tx.gas_price, gas_limit=tx.gas_limit,
        to=tx.to, value=tx.value + 1, data=tx.data,
        v=tx.v, r=tx.r, s=tx.s,
    )
    # Signature no longer matches the content: sender differs (or
    # recovery fails outright).
    try:
        assert tampered.sender != KEY.address
    except TransactionError:
        pass


def test_decode_rejects_wrong_field_count():
    from repro.crypto import rlp

    with pytest.raises(TransactionError):
        Transaction.decode(rlp.encode([b"", b"", b""]))


def test_signing_hash_excludes_signature():
    h1 = Transaction.signing_hash(0, 1, 21_000, DEST, 5, b"")
    h2 = Transaction.signing_hash(0, 1, 21_000, DEST, 6, b"")
    assert h1 != h2
    assert len(h1) == 32


def test_sender_recovered_exactly_once(monkeypatch):
    """``sender`` memoises the ECDSA recovery after the first access."""
    import repro.chain.transaction as txmod

    tx = _tx()
    calls = {"n": 0}
    real = txmod.recover_address

    def counting(digest, signature):
        calls["n"] += 1
        return real(digest, signature)

    monkeypatch.setattr(txmod, "recover_address", counting)
    first = tx.sender
    second = tx.sender
    assert first == second == KEY.address
    assert calls["n"] == 1


def test_high_s_transaction_sender_rejected():
    """EIP-2: the malleated twin of a valid transaction signature is
    refused at sender recovery (and hence at mempool admission)."""
    import dataclasses

    import pytest

    from repro.chain.mempool import Mempool, MempoolError
    from repro.crypto.secp256k1 import N

    tx = _tx()
    assert tx.sender == KEY.address  # the canonical form recovers
    twin = dataclasses.replace(tx, v=55 - tx.v, s=N - tx.s)
    with pytest.raises(TransactionError, match="EIP-2"):
        twin.sender
    with pytest.raises(MempoolError):
        Mempool().add(twin)


def test_seed_sender_prevents_recomputation():
    tx = _tx()
    wrong = PrivateKey.from_seed("seeded-sender").address
    tx.seed_sender(wrong)
    # cached_property serves the seeded value instead of recovering.
    assert tx.sender == wrong
