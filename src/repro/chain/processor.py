"""Transaction processor: the yellow-paper state transition function.

Validates a transaction against world state, charges intrinsic and
execution gas, applies the message via the EVM, settles refunds (capped
at half the gas used) and pays the miner — the accounting that makes
"Gas" in this simulator mean what it means in the paper's Table II.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.crypto.keys import Address
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction
from repro.evm import gas
from repro.evm.vm import EVM, BlockContext, ExecutionResult, Message
from repro.exceptions import ReproError


class InvalidTransaction(ReproError, ValueError):
    """The transaction cannot be included in a block at all."""


_ERROR_STRING_SELECTOR = bytes.fromhex("08c379a0")


def decode_revert_reason(return_data: bytes) -> Optional[str]:
    """Extract the message from a Solidity ``Error(string)`` payload.

    Returns None when the revert carried no (decodable) reason.
    """
    if len(return_data) < 4 + 64 or \
            return_data[:4] != _ERROR_STRING_SELECTOR:
        return None
    body = return_data[4:]
    try:
        offset = int.from_bytes(body[0:32], "big")
        length = int.from_bytes(body[offset:offset + 32], "big")
        raw = body[offset + 32:offset + 32 + length]
        if len(raw) != length:
            return None
        return raw.decode("utf-8", errors="replace")
    except (IndexError, ValueError):
        return None


@dataclass
class TransactionOutcome:
    """Result of applying one transaction to state."""

    status: bool
    gas_used: int
    return_data: bytes
    contract_address: Optional[Address]
    logs: tuple
    error: Optional[str]


def validate_transaction(state: WorldState, tx: Transaction) -> None:
    """Raise :class:`InvalidTransaction` if ``tx`` cannot execute."""
    sender = tx.sender
    expected_nonce = state.get_nonce(sender)
    if tx.nonce != expected_nonce:
        raise InvalidTransaction(
            f"nonce mismatch: tx has {tx.nonce}, account at {expected_nonce}"
        )
    balance = state.get_balance(sender)
    if balance < tx.upfront_cost():
        raise InvalidTransaction(
            f"insufficient funds: balance {balance} < cost {tx.upfront_cost()}"
        )
    intrinsic = gas.intrinsic_gas(tx.data, tx.is_create)
    if tx.gas_limit < intrinsic:
        raise InvalidTransaction(
            f"gas limit {tx.gas_limit} below intrinsic gas {intrinsic}"
        )


def apply_transaction(state: WorldState, block: BlockContext,
                      tx: Transaction,
                      jit: Optional[bool] = None) -> TransactionOutcome:
    """Execute ``tx`` against ``state``, committing all side effects."""
    validate_transaction(state, tx)
    sender = tx.sender
    # When telemetry is active, the EVM reports every outer-frame step
    # into a per-transaction opcode-gas collector (see repro.obs).
    collector = obs.begin_transaction()

    # Buy gas up front.
    state.set_balance(
        sender, state.get_balance(sender) - tx.gas_limit * tx.gas_price
    )
    intrinsic = gas.intrinsic_gas(tx.data, tx.is_create)
    execution_gas = tx.gas_limit - intrinsic

    if not tx.is_create:
        # Creation nonce bumping happens inside the EVM (so that the
        # CREATE address derivation sees the pre-increment value).
        state.increment_nonce(sender)

    message = Message(
        sender=sender,
        to=tx.to,
        value=tx.value,
        data=tx.data,
        gas=execution_gas,
        origin=sender,
        gas_price=tx.gas_price,
    )
    evm = EVM(state, block, tracer=collector, jit=jit)
    result: ExecutionResult = evm.execute(message)

    gas_used = intrinsic + result.gas_used
    refund = 0
    if result.success:
        refund = min(result.gas_refund, gas_used // 2)
        gas_used -= refund

    # Reimburse the sender and pay the miner.
    state.add_balance(sender, (tx.gas_limit - gas_used) * tx.gas_price)
    state.add_balance(block.coinbase, gas_used * tx.gas_price)

    error = result.error
    if error == "revert":
        reason = decode_revert_reason(result.return_data)
        if reason is not None:
            error = f"revert: {reason}"

    if collector is not None:
        obs.end_transaction(collector, execution_gas=result.gas_used,
                            intrinsic=intrinsic, refund=refund,
                            gas_used=gas_used)
    state.clear_journal()
    return TransactionOutcome(
        status=result.success,
        gas_used=gas_used,
        return_data=result.return_data,
        contract_address=result.created_address,
        logs=tuple(result.logs),
        error=error,
    )
