"""Signed transactions.

Classic (pre-EIP-1559) Ethereum transactions: RLP-serialised
``[nonce, gas_price, gas_limit, to, value, data, v, r, s]`` with the
sender recovered from the ECDSA signature over the unsigned payload's
Keccak-256 hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.crypto import rlp
from repro.crypto.ecdsa import Signature
from repro.crypto.keccak import keccak256
from repro.crypto.keys import Address, PrivateKey, recover_address
from repro.exceptions import ReproError


class TransactionError(ReproError, ValueError):
    """Raised for malformed or invalid transactions."""


@dataclass(frozen=True)
class Transaction:
    """An immutable signed transaction."""

    nonce: int
    gas_price: int
    gas_limit: int
    to: Optional[Address]  # None => contract creation
    value: int
    data: bytes
    v: int
    r: int
    s: int

    @property
    def is_create(self) -> bool:
        """True for contract-creation transactions (no recipient)."""
        return self.to is None

    @property
    def signature(self) -> Signature:
        """The (v, r, s) signature triple, if signed."""
        return Signature(v=self.v, r=self.r, s=self.s)

    @staticmethod
    def _signing_payload(nonce: int, gas_price: int, gas_limit: int,
                         to: Optional[Address], value: int,
                         data: bytes) -> bytes:
        return rlp.encode([
            nonce, gas_price, gas_limit,
            to.value if to is not None else b"",
            value, data,
        ])

    @classmethod
    def signing_hash(cls, nonce: int, gas_price: int, gas_limit: int,
                     to: Optional[Address], value: int, data: bytes) -> bytes:
        """Hash that the sender signs."""
        return keccak256(
            cls._signing_payload(nonce, gas_price, gas_limit, to, value, data)
        )

    @classmethod
    def create_signed(cls, private_key: PrivateKey, nonce: int,
                      to: Optional[Address], value: int, data: bytes = b"",
                      gas_limit: int = 3_000_000,
                      gas_price: int = 1) -> "Transaction":
        """Build and sign a transaction in one step."""
        digest = cls.signing_hash(nonce, gas_price, gas_limit, to, value, data)
        sig = private_key.sign(digest)
        return cls(
            nonce=nonce, gas_price=gas_price, gas_limit=gas_limit,
            to=to, value=value, data=data, v=sig.v, r=sig.r, s=sig.s,
        )

    @cached_property
    def sender(self) -> Address:
        """Recover the sender address from the signature.

        High-s signatures are rejected outright (EIP-2, Homestead):
        accepting the malleated twin would let the same payload exist
        under two different transaction hashes and pollute the
        ``recover_address`` memo with duplicate entries.
        """
        digest = self.signing_hash(
            self.nonce, self.gas_price, self.gas_limit,
            self.to, self.value, self.data,
        )
        signature = self.signature
        if not signature.is_low_s:
            raise TransactionError(
                "non-canonical signature: s is in the upper half of the "
                "curve order (EIP-2 requires low-s transactions)"
            )
        try:
            return recover_address(digest, signature)
        except ValueError as exc:
            raise TransactionError(f"unrecoverable signature: {exc}") from exc

    def seed_sender(self, address: Address) -> None:
        """Pre-populate the :attr:`sender` cache with a recovered
        address.

        For callers that already know the sender: ``cached_property``
        stores through ``__dict__``, which ``frozen=True`` does not
        protect, so the next :attr:`sender` read skips the ECDSA
        recovery.
        """
        self.__dict__["sender"] = address

    def encode(self) -> bytes:
        """Full RLP wire encoding (with signature)."""
        return rlp.encode([
            self.nonce, self.gas_price, self.gas_limit,
            self.to.value if self.to is not None else b"",
            self.value, self.data, self.v, self.r, self.s,
        ])

    @classmethod
    def decode(cls, raw: bytes) -> "Transaction":
        """Parse the RLP wire encoding."""
        items = rlp.decode(raw)
        if not isinstance(items, list) or len(items) != 9:
            raise TransactionError("transaction RLP must have 9 fields")
        nonce, gas_price, gas_limit, to, value, data, v, r, s = items
        return cls(
            nonce=rlp.decode_int(nonce),
            gas_price=rlp.decode_int(gas_price),
            gas_limit=rlp.decode_int(gas_limit),
            to=Address(to) if to else None,
            value=rlp.decode_int(value),
            data=data,
            v=rlp.decode_int(v),
            r=rlp.decode_int(r),
            s=rlp.decode_int(s),
        )

    @cached_property
    def hash(self) -> bytes:
        """Transaction hash (keccak of the signed encoding)."""
        return keccak256(self.encode())

    @property
    def hash_hex(self) -> str:
        """The transaction hash as a 0x-prefixed hex string."""
        return "0x" + self.hash.hex()

    def upfront_cost(self) -> int:
        """Max wei the sender must hold: value + gas_limit * gas_price."""
        return self.value + self.gas_limit * self.gas_price
