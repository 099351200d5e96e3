"""Blockchain substrate: accounts, state, transactions, blocks, mining.

A deterministic single-node Ethereum stand-in (the role Kovan plays in
the paper) with a ganache-like :class:`EthereumSimulator` facade.
"""

from repro.chain.account import Account
from repro.chain.block import Block, BlockHeader
from repro.chain.blockchain import Blockchain, ChainError
from repro.chain.contract import (
    ContractABI,
    DeployedContract,
    EventABI,
    FunctionABI,
)
from repro.chain.mempool import Mempool, MempoolError
from repro.chain.processor import (
    InvalidTransaction,
    apply_transaction,
    decode_revert_reason,
)
from repro.chain.aggregator import (
    AGGREGATOR_NAME,
    MAX_AGGREGATOR_DEPTH,
    compile_aggregator,
    render_aggregator_contract,
)
from repro.chain.receipt import Receipt
from repro.chain.simulator import (
    ETHER,
    GWEI,
    CallFailed,
    EthereumSimulator,
    SettlementConfigError,
    SimAccount,
    SimulatorConfig,
    SimulatorConfigError,
    TransactionFailed,
)
from repro.chain.state import WorldState
from repro.chain.transaction import Transaction, TransactionError

__all__ = [
    "Account",
    "Block",
    "BlockHeader",
    "Blockchain",
    "ChainError",
    "ContractABI",
    "DeployedContract",
    "EventABI",
    "FunctionABI",
    "Mempool",
    "MempoolError",
    "InvalidTransaction",
    "apply_transaction",
    "decode_revert_reason",
    "AGGREGATOR_NAME",
    "MAX_AGGREGATOR_DEPTH",
    "compile_aggregator",
    "render_aggregator_contract",
    "Receipt",
    "ETHER",
    "GWEI",
    "CallFailed",
    "EthereumSimulator",
    "SettlementConfigError",
    "SimAccount",
    "SimulatorConfig",
    "SimulatorConfigError",
    "TransactionFailed",
    "WorldState",
    "Transaction",
    "TransactionError",
]
