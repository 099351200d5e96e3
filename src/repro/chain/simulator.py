"""A ganache-like Ethereum simulator facade.

Bundles the blockchain, a set of pre-funded deterministic accounts, and
web3-style helpers (deploy / transact / call / time-warp) — the same
developer surface the paper's authors had against Kovan, minus the
network.  Auto-mining is on by default: every transaction lands in its
own block, which keeps receipts immediate and tests deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro import obs
from repro.crypto.keys import Address, PrivateKey
from repro.chain.block import Block
from repro.chain.blockchain import (
    DEFAULT_BLOCK_GAS_LIMIT,
    DEFAULT_BLOCK_INTERVAL,
    Blockchain,
    ChainError,
)
from repro.chain.contract import ContractABI, DeployedContract
from repro.chain.receipt import Receipt
from repro.chain.transaction import Transaction
from repro.exceptions import ReproError

ETHER = 10 ** 18
GWEI = 10 ** 9
DEFAULT_FUNDING = 1_000 * ETHER


class TransactionFailed(ReproError, RuntimeError):
    """A transaction was mined but reverted (carries the receipt)."""

    def __init__(self, receipt: Receipt) -> None:
        super().__init__(
            f"transaction reverted in block {receipt.block_number}: "
            f"{receipt.error or 'no reason'}"
        )
        self.receipt = receipt


class CallFailed(ReproError, RuntimeError):
    """A read-only call reverted."""


class SimulatorConfigError(ReproError, ValueError):
    """A :class:`SimulatorConfig` knob is out of its valid range."""


class SettlementConfigError(SimulatorConfigError):
    """The settlement knobs (``settlement``/``batch_size``/window) are
    inconsistent — rejected at construction, before any chain exists."""


#: Settlement modes :class:`SimulatorConfig` accepts (mirrors
#: ``repro.core.settlement.SETTLEMENTS`` without importing upward).
_SETTLEMENT_MODES = ("direct", "netted")

#: Mirrors ``repro.core.settlement.MAX_BATCH_SIZE`` (2 ** max depth of
#: the rendered aggregator) without importing upward.
_MAX_BATCH_SIZE = 256


@dataclass(frozen=True)
class SimulatorConfig:
    """Construction knobs for :class:`EthereumSimulator`.

    The preferred construction is keyword-only::

        sim = EthereumSimulator(config=SimulatorConfig(auto_mine=False))

    ``block_gas_limit`` and ``block_interval`` flow through to the
    underlying :class:`~repro.chain.blockchain.Blockchain`, which is
    what the multi-session engine tunes for batch mining.  The
    settlement knobs (``settlement``, ``batch_size``,
    ``settlement_challenge_period``) are validated here, at
    construction — a bad combination raises
    :class:`SettlementConfigError` before any chain state exists.
    """

    num_accounts: int = 10
    funding: int = DEFAULT_FUNDING
    auto_mine: bool = True
    genesis_timestamp: int = 1_550_000_000
    block_gas_limit: int = DEFAULT_BLOCK_GAS_LIMIT
    block_interval: int = DEFAULT_BLOCK_INTERVAL
    #: Force (True) or forbid (False) the EVM bytecode-to-Python JIT
    #: for this simulator's executions; None keeps the module default
    #: (enabled, honouring ``REPRO_EVM_JIT``).  See ``repro.evm.jit``.
    evm_jit: Optional[bool] = None
    #: How engine-driven sessions settle: ``"direct"`` (one on-chain
    #: submit/finalize pair per session) or ``"netted"`` (one
    #: ``commitBatch`` transaction per batch of sessions).
    settlement: str = "direct"
    #: Sessions per netted batch (must stay 1 under direct mode).
    batch_size: int = 1
    #: Batch-level challenge window, seconds (netted mode only).
    settlement_challenge_period: int = 3_600

    def __post_init__(self) -> None:
        """Reject inconsistent knob combinations at construction."""
        if self.num_accounts < 0:
            raise SimulatorConfigError(
                f"num_accounts {self.num_accounts} must be >= 0")
        if self.block_gas_limit <= 0:
            raise SimulatorConfigError(
                f"block_gas_limit {self.block_gas_limit} must be > 0")
        if self.block_interval <= 0:
            raise SimulatorConfigError(
                f"block_interval {self.block_interval} must be > 0")
        if self.settlement not in _SETTLEMENT_MODES:
            raise SettlementConfigError(
                f"unknown settlement mode {self.settlement!r}; "
                f"choose from {_SETTLEMENT_MODES}")
        if self.batch_size < 1:
            raise SettlementConfigError(
                f"batch_size {self.batch_size} must be >= 1")
        if self.batch_size > _MAX_BATCH_SIZE:
            raise SettlementConfigError(
                f"batch_size {self.batch_size} exceeds the aggregator "
                f"cap of {_MAX_BATCH_SIZE}")
        if self.settlement == "direct" and self.batch_size != 1:
            raise SettlementConfigError(
                "batch_size > 1 needs settlement='netted' — direct "
                "settlement submits per session")
        if self.settlement == "netted" \
                and self.settlement_challenge_period <= 0:
            raise SettlementConfigError(
                "netted settlement needs a positive "
                "settlement_challenge_period — with no batch window a "
                "false leaf could never be opened")


@dataclass
class SimAccount:
    """A pre-funded externally owned account."""

    key: PrivateKey
    name: str = ""

    @property
    def address(self) -> Address:
        """The account's address."""
        return self.key.address

    def __str__(self) -> str:
        return self.name or self.address.checksum


class EthereumSimulator:
    """Single-node test chain with funded accounts and auto-mining."""

    def __init__(self, num_accounts: Optional[int] = None,
                 funding: Optional[int] = None,
                 auto_mine: Optional[bool] = None,
                 genesis_timestamp: Optional[int] = None, *,
                 config: Optional[SimulatorConfig] = None) -> None:
        legacy = {
            name: value for name, value in (
                ("num_accounts", num_accounts),
                ("funding", funding),
                ("auto_mine", auto_mine),
                ("genesis_timestamp", genesis_timestamp),
            ) if value is not None
        }
        if config is not None and legacy:
            raise TypeError(
                "pass either config=SimulatorConfig(...) or the legacy "
                f"arguments, not both: {sorted(legacy)}"
            )
        if config is None:
            if legacy:
                warnings.warn(
                    "EthereumSimulator(num_accounts, funding, auto_mine, "
                    "genesis_timestamp) is deprecated; use "
                    "EthereumSimulator(config=SimulatorConfig(...))",
                    DeprecationWarning, stacklevel=2,
                )
            config = SimulatorConfig(**legacy)
        self.config = config
        self.chain = Blockchain(
            genesis_timestamp=config.genesis_timestamp,
            block_gas_limit=config.block_gas_limit,
            block_interval=config.block_interval,
            evm_jit=config.evm_jit,
        )
        self.auto_mine = config.auto_mine
        self.accounts: list[SimAccount] = []
        for index in range(config.num_accounts):
            account = SimAccount(
                key=PrivateKey.from_seed(f"simulator-account-{index}"),
                name=f"account{index}",
            )
            self.chain.state.add_balance(account.address, config.funding)
            self.accounts.append(account)
        self.chain.state.clear_journal()

    # -- accounts ---------------------------------------------------------

    def create_account(self, seed: str, funding: int = DEFAULT_FUNDING,
                       name: str = "") -> SimAccount:
        """Create and fund an additional deterministic account."""
        account = SimAccount(key=PrivateKey.from_seed(seed), name=name or seed)
        self.chain.state.add_balance(account.address, funding)
        self.chain.state.clear_journal()
        return account

    def get_balance(self, who: Address | SimAccount) -> int:
        """Current wei balance of ``address``."""
        address = who.address if isinstance(who, SimAccount) else who
        return self.chain.state.get_balance(address)

    def get_nonce(self, who: Address | SimAccount) -> int:
        """Current nonce of ``address``."""
        address = who.address if isinstance(who, SimAccount) else who
        return self.chain.state.get_nonce(address)

    # -- time ----------------------------------------------------------------

    @property
    def current_timestamp(self) -> int:
        """The chain's current timestamp (latest block time)."""
        return self.chain.latest_block.timestamp

    def increase_time(self, seconds: int) -> None:
        """Warp the next block's timestamp forward."""
        self.chain.increase_time(seconds)

    def advance_time_to(self, timestamp: int) -> None:
        """Warp so the *next* block is at or after ``timestamp``."""
        target_delta = timestamp - (
            self.chain.latest_block.timestamp + self.chain.block_interval
        )
        if target_delta > 0:
            self.chain.increase_time(target_delta)

    def mine(self, blocks: int = 1,
             gas_limit: Optional[int] = None) -> list[Block]:
        """Mine ``blocks`` blocks, packing pending transactions.

        With ``auto_mine=False`` this is the other half of the
        :meth:`pending`/:meth:`mine` pair: queue transactions with
        :meth:`send_transaction`, inspect them with :meth:`pending`,
        then mine explicitly.  Returns the mined blocks so callers can
        see exactly what was packed.
        """
        return [self.chain.mine_block(gas_limit=gas_limit)
                for __ in range(blocks)]

    def pending(self) -> list[Transaction]:
        """Transactions queued in the mempool, in miner order."""
        return self.chain.mempool.pending()

    # -- snapshots (ganache evm_snapshot / evm_revert) -----------------------

    def snapshot(self) -> int:
        """Capture the full chain state; returns a snapshot id.

        Reverting restores world state, blocks, receipts and the clock
        — the ganache ``evm_snapshot`` idiom tests use to explore
        alternative futures from a common setup.  Unsupported once a
        durable store is attached: reverting in memory would silently
        diverge from the committed WAL (``docs/persistence.md``).
        """
        if self.chain._store is not None:
            raise ChainError(
                "snapshot/revert is unsupported on a chain backed by a "
                "durable store — an in-memory revert cannot rewind the "
                "committed WAL")
        if not hasattr(self, "_snapshots"):
            self._snapshots: dict[int, tuple] = {}
            self._snapshot_counter = 0
        self._snapshot_counter += 1
        chain = self.chain
        self._snapshots[self._snapshot_counter] = (
            chain.state.copy(),
            list(chain.blocks),
            dict(chain._receipts),
            dict(chain._dropped),
            chain._time_offset,
        )
        return self._snapshot_counter

    def revert(self, snapshot_id: int) -> None:
        """Restore a snapshot taken by :meth:`snapshot`."""
        snapshots = getattr(self, "_snapshots", {})
        if snapshot_id not in snapshots:
            raise ChainError(f"unknown snapshot id {snapshot_id}")
        state, blocks, receipts, dropped, offset = \
            snapshots.pop(snapshot_id)
        chain = self.chain
        chain.state = state
        chain.blocks = blocks
        chain._receipts = receipts
        chain._dropped = dropped
        chain._time_offset = offset
        chain.mempool.clear()
        # Later snapshots reference futures that no longer exist.
        for later in [sid for sid in snapshots if sid > snapshot_id]:
            snapshots.pop(later)

    # -- transactions ------------------------------------------------------------

    def send_transaction(self, sender: SimAccount, to: Optional[Address],
                         data: bytes = b"", value: int = 0,
                         gas_limit: int = 3_000_000,
                         gas_price: int = 1) -> bytes:
        """Sign and queue a transaction without mining; returns its hash.

        Manual-mining workflow: queue several transactions, then call
        :meth:`mine` once to pack them into a single block, and fetch
        receipts via :meth:`get_receipt`.  Nonces are allocated from
        pending state (pool-aware), so one sender can queue many.
        """
        pending_same_sender = sum(
            1 for tx in self.chain.mempool.pending()
            if tx.sender == sender.address
        )
        tx = Transaction.create_signed(
            private_key=sender.key,
            nonce=self.get_nonce(sender) + pending_same_sender,
            to=to,
            value=value,
            data=data,
            gas_limit=gas_limit,
            gas_price=gas_price,
        )
        return self.chain.send_transaction(tx)

    def get_receipt(self, tx_hash: bytes) -> Receipt:
        """Receipt of a mined transaction (raises if unknown/pending)."""
        return self.chain.get_receipt(tx_hash)

    def transact(self, sender: SimAccount, to: Optional[Address],
                 data: bytes = b"", value: int = 0,
                 gas_limit: int = 3_000_000, gas_price: int = 1,
                 require_success: bool = True) -> Receipt:
        """Sign, send and (auto-)mine a transaction; return its receipt."""
        if not self.auto_mine:
            raise ChainError(
                "auto_mine is off: use send_transaction() + mine() and "
                "fetch the receipt manually"
            )
        tx_hash = self.send_transaction(
            sender, to, data=data, value=value,
            gas_limit=gas_limit, gas_price=gas_price,
        )
        self.chain.mine_block()
        receipt = self.chain.get_receipt(tx_hash)
        if require_success and not receipt.status:
            raise TransactionFailed(receipt)
        return receipt

    def transfer(self, sender: SimAccount, to: Address | SimAccount,
                 value: int) -> Receipt:
        """Plain value transfer."""
        address = to.address if isinstance(to, SimAccount) else to
        return self.transact(sender, address, value=value, gas_limit=50_000)

    def deploy_bytecode(self, sender: SimAccount, init_code: bytes,
                        value: int = 0,
                        gas_limit: int = 6_000_000) -> Receipt:
        """Deploy raw init bytecode; receipt carries the new address."""
        return self.transact(
            sender, to=None, data=init_code, value=value, gas_limit=gas_limit
        )

    def deploy(self, sender: SimAccount, init_code: bytes, abi: ContractABI,
               constructor_args: Sequence[Any] = (), value: int = 0,
               gas_limit: int = 6_000_000) -> DeployedContract:
        """Deploy a compiled contract and return a bound handle."""
        data = init_code + abi.encode_constructor_args(constructor_args)
        with obs.span(obs.names.SPAN_CHAIN_DEPLOY,
                      contract=abi.contract_name):
            receipt = self.deploy_bytecode(sender, data, value=value,
                                           gas_limit=gas_limit)
        if obs.enabled():
            obs.inc(obs.names.METRIC_CHAIN_FN_GAS, receipt.gas_used,
                    fn="(deploy)")
        assert receipt.contract_address is not None
        return DeployedContract(
            address=receipt.contract_address,
            abi=abi,
            simulator=self,
            deploy_receipt=receipt,
        )

    def contract_at(self, address: Address, abi: ContractABI) -> DeployedContract:
        """Bind an ABI to an already-deployed address."""
        return DeployedContract(address=address, abi=abi, simulator=self)

    # -- read-only execution ---------------------------------------------------------

    def call(self, to: Address, data: bytes = b"",
             sender: Optional[SimAccount] = None, value: int = 0,
             gas_limit: int = 8_000_000) -> bytes:
        """eth_call: execute against a copy of state, discard changes."""
        from repro.evm.vm import EVM, Message

        state_copy = self.chain.state.copy()
        caller = (sender or self.accounts[0]).address
        if value:
            state_copy.add_balance(caller, value)
        message = Message(
            sender=caller, to=to, value=value, data=data,
            gas=gas_limit, origin=caller,
        )
        evm = EVM(state_copy, self.chain.block_context(),
                  jit=self.chain.evm_jit)
        with obs.span(obs.names.SPAN_CHAIN_CALL):
            result = evm.execute(message)
        if not result.success:
            from repro.chain.processor import decode_revert_reason

            reason = decode_revert_reason(result.return_data)
            raise CallFailed(
                f"call reverted: {reason or result.error or 'no reason'}"
            )
        return result.return_data

    def profile(self, sender: SimAccount, to: Optional[Address],
                data: bytes = b"", value: int = 0,
                gas_limit: int = 8_000_000, depth_limit: int | None = 0):
        """Gas-profile a message on a state copy (nothing committed).

        Returns a :class:`repro.evm.tracer.GasProfile` decomposing the
        execution gas by opcode and category.  ``depth_limit=0`` gives
        an exclusive decomposition of the outermost frame.
        """
        from repro.evm.tracer import GasProfiler
        from repro.evm.vm import EVM, Message

        state_copy = self.chain.state.copy()
        if to is not None:
            state_copy.increment_nonce(sender.address)
        profiler = GasProfiler(depth_limit=depth_limit)
        message = Message(
            sender=sender.address, to=to, value=value, data=data,
            gas=gas_limit, origin=sender.address,
        )
        evm = EVM(state_copy, self.chain.block_context(), tracer=profiler)
        result = evm.execute(message)
        if not result.success:
            raise CallFailed(
                f"profiled execution reverted: {result.error}"
            )
        return profiler.profile

    def estimate_gas(self, sender: SimAccount, to: Optional[Address],
                     data: bytes = b"", value: int = 0) -> int:
        """Gas a transaction would use, without committing anything."""
        from repro.evm import gas as gas_schedule
        from repro.evm.vm import EVM, Message

        state_copy = self.chain.state.copy()
        intrinsic = gas_schedule.intrinsic_gas(data, to is None)
        if to is not None:
            state_copy.increment_nonce(sender.address)
        message = Message(
            sender=sender.address, to=to, value=value, data=data,
            gas=self.chain.block_gas_limit - intrinsic,
            origin=sender.address,
        )
        evm = EVM(state_copy, self.chain.block_context(),
                  jit=self.chain.evm_jit)
        result = evm.execute(message)
        if not result.success:
            raise CallFailed(f"estimate reverted: {result.error or 'no reason'}")
        refund = min(result.gas_refund, (intrinsic + result.gas_used) // 2)
        return intrinsic + result.gas_used - refund
