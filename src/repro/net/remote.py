"""Client-side mirrors of the simulator and Whisper bus surfaces.

:class:`RemoteSimulator` lets an unmodified
:class:`~repro.core.engine.SessionEngine` (and the protocol/apps
behind it) run in one OS process while the chain lives in another: it
implements the simulator methods the engine path uses —
``create_account``, pool-aware ``send_transaction``, ``mine``,
``pending``, ``get_receipt``, time warping, ``eth_call`` — by signing
locally and shipping raw transactions over a
:class:`~repro.net.client.ChannelClient`.  Private keys are derived
and kept on this side; the node only ever sees addresses and
pre-signed transactions.

:class:`RemoteWhisperTransport` is the same idea for the off-chain
bus: it implements the :class:`~repro.offchain.whisper.WhisperBus`
interface (``subscribe``/``post``/``poll``/``peek_all``/
``advance_time``/``now``) against the node's shared bus, so the
protocol's signature exchange crosses the wire without knowing it.

Both mirrors are deliberately *thin*: every consequential decision
(nonce allocation against the pending pool, expiry boundaries,
receipt contents) is made node-side by the same code the in-process
path runs, which is what makes gas ledgers bit-identical across the
two topologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.chain.blockchain import ChainError
from repro.chain.contract import DeployedContract
from repro.chain.receipt import Receipt
from repro.chain.simulator import (
    DEFAULT_FUNDING,
    CallFailed,
    SimAccount,
    SimulatorConfig,
)
from repro.chain.transaction import Transaction
from repro.crypto.keys import Address, PrivateKey
from repro.net.client import ChannelClient
from repro.net.wire import NetError, from_hex, to_hex
from repro.offchain.envelope import Envelope


@dataclass(frozen=True)
class RemoteBlock:
    """A mined block as seen over the wire (hashes, not bodies)."""

    number: int
    timestamp: int
    transactions: tuple[str, ...]


class RemoteChain:
    """The slice of :class:`Blockchain` the engine touches, by RPC."""

    def __init__(self, client: ChannelClient) -> None:
        self._client = client

    @property
    def latest_block(self) -> RemoteBlock:
        """Header of the node's latest block."""
        result = self._client.call("chain.latest")
        return RemoteBlock(number=result["number"],
                           timestamp=result["timestamp"],
                           transactions=())

    def next_timestamp(self) -> int:
        """The timestamp the next mined block will carry."""
        return self._client.call("chain.next_timestamp")["timestamp"]

    def attach_store(self, store: Any) -> None:
        """Durable stores live node-side; always an error here."""
        raise ChainError(
            "--store is not supported over the net transport: the "
            "durable chain store belongs to the node process")


class RemoteSimulator:
    """The engine-facing simulator surface, served by a chain node."""

    def __init__(self, client: ChannelClient,
                 config: Optional[SimulatorConfig] = None) -> None:
        self.client = client
        #: Local knobs (settlement policy, batch size) the engine
        #: reads off ``simulator.config``; chain-level fields describe
        #: the node and must match its genesis for identical ledgers.
        self.config = config or SimulatorConfig(num_accounts=2,
                                                auto_mine=False)
        self.auto_mine = False
        self.chain = RemoteChain(client)
        #: Mirrors of the node's pre-funded genesis accounts — same
        #: deterministic seeds, so the same keys on both sides.
        self.accounts = [
            SimAccount(
                key=PrivateKey.from_seed(f"simulator-account-{i}"),
                name=f"account{i}")
            for i in range(self.config.num_accounts)
        ]

    # -- accounts ---------------------------------------------------------

    def create_account(self, seed: str,
                       funding: int = DEFAULT_FUNDING,
                       name: str = "") -> SimAccount:
        """Derive a key locally; ask the node to fund its address."""
        account = SimAccount(key=PrivateKey.from_seed(seed),
                             name=name or seed)
        self.client.call("chain.fund",
                         {"address": account.address.hex,
                          "amount": funding})
        return account

    def get_balance(self, who: Address | SimAccount) -> int:
        """Current wei balance, read from the node."""
        address = who.address if isinstance(who, SimAccount) else who
        return self.client.call("chain.balance",
                                {"address": address.hex})["balance"]

    def get_nonce(self, who: Address | SimAccount) -> int:
        """Current (mined-state) nonce, read from the node."""
        address = who.address if isinstance(who, SimAccount) else who
        return self.client.call("chain.nonce",
                                {"address": address.hex})["nonce"]

    # -- time -------------------------------------------------------------

    @property
    def current_timestamp(self) -> int:
        """The node chain's current timestamp."""
        return self.chain.latest_block.timestamp

    def advance_time_to(self, timestamp: int) -> None:
        """Warp the node so the next block is at/after ``timestamp``."""
        self.client.call("chain.advance_time_to",
                         {"timestamp": timestamp})

    # -- transactions -----------------------------------------------------

    def send_transaction(self, sender: SimAccount,
                         to: Optional[Address], data: bytes = b"",
                         value: int = 0, gas_limit: int = 3_000_000,
                         gas_price: int = 1) -> bytes:
        """Sign locally, queue on the node; returns the tx hash.

        The pool-aware nonce comes from the node (`chain.next_nonce`
        counts that sender's mempool entries exactly like the
        in-process simulator does), so interleaved multi-tx batches
        produce identical transactions in both topologies.
        """
        nonce = self.client.call(
            "chain.next_nonce",
            {"address": sender.address.hex})["nonce"]
        transaction = Transaction.create_signed(
            private_key=sender.key, nonce=nonce, to=to, value=value,
            data=data, gas_limit=gas_limit, gas_price=gas_price)
        result = self.client.call(
            "chain.send_raw", {"tx": to_hex(transaction.encode())})
        return from_hex(result["hash"])

    def mine(self, blocks: int = 1,
             gas_limit: Optional[int] = None) -> list[RemoteBlock]:
        """Mine on the node; returns header-level block views."""
        mined = []
        for __ in range(blocks):
            result = self.client.call("chain.mine",
                                      {"gas_limit": gas_limit})
            mined.append(RemoteBlock(
                number=result["number"],
                timestamp=result["timestamp"],
                transactions=tuple(result["tx_hashes"])))
        return mined

    def pending(self) -> Sequence[int]:
        """A sized stand-in for the node's mempool content."""
        count = self.client.call("chain.pending")["count"]
        return range(count)

    def get_receipt(self, tx_hash: bytes) -> Receipt:
        """Fetch and rebuild a mined transaction's receipt."""
        from repro.net.node import decode_receipt

        result = self.client.call("chain.receipt",
                                  {"hash": to_hex(tx_hash)})
        return decode_receipt(result["receipt"])

    def transact(self, *args: Any, **kwargs: Any) -> Receipt:
        """Sync transact needs auto-mining; never available remotely."""
        raise ChainError(
            "auto_mine is off: use send_transaction() + mine() and "
            "fetch the receipt manually")

    # -- read-only execution ----------------------------------------------

    def call(self, to: Address, data: bytes = b"",
             sender: Optional[SimAccount] = None, value: int = 0,
             gas_limit: int = 8_000_000) -> bytes:
        """eth_call on the node; raises :class:`CallFailed` on revert."""
        try:
            result = self.client.call(
                "chain.call",
                {"to": to.hex, "data": to_hex(data), "value": value})
        except NetError as exc:
            message = str(exc)
            if "CallFailed" in message:
                raise CallFailed(
                    message.split("CallFailed: ", 1)[-1]) from exc
            raise
        return from_hex(result["data"])

    def contract_at(self, address: Address,
                    abi: Any) -> DeployedContract:
        """Bind an ABI to a node-side deployed address."""
        return DeployedContract(address=address, abi=abi,
                                simulator=self)


class RemoteWhisperTransport:
    """The WhisperBus interface, backed by the node's shared bus."""

    def __init__(self, client: ChannelClient) -> None:
        self._client = client

    @property
    def now(self) -> int:
        """The node bus's current clock reading."""
        return self._client.call("bus.now")["now"]

    @property
    def bytes_transferred(self) -> int:
        """Cumulative padded bytes posted through the node bus."""
        return self._client.call(
            "bus.stats")["bytes_transferred"]

    def advance_time(self, seconds: int) -> None:
        """Advance the node bus clock (lazy pruning, as locally)."""
        self._client.call("bus.advance", {"seconds": seconds})

    def subscribe(self, subscriber: str, topic: str,
                  resubscribe: bool = False) -> None:
        """Register/keep a cursor on the node bus."""
        self._client.call("bus.subscribe",
                          {"subscriber": subscriber, "topic": topic,
                           "resubscribe": resubscribe})

    def post(self, topic: str, payload: bytes, sender: str = "",
             ttl: int = 3_600) -> Envelope:
        """Publish through the node; returns the equivalent envelope."""
        result = self._client.call(
            "bus.post", {"topic": topic, "payload": to_hex(payload),
                         "sender": sender, "ttl": ttl})
        return Envelope(topic=topic, payload=payload, sender=sender,
                        posted_at=result["posted_at"], ttl=ttl)

    def poll(self, subscriber: str, topic: str) -> list[Envelope]:
        """Unseen, unexpired envelopes for a subscriber."""
        result = self._client.call(
            "bus.poll", {"subscriber": subscriber, "topic": topic})
        return [self._decode(obj) for obj in result["envelopes"]]

    def peek_all(self, topic: str) -> list[Envelope]:
        """All unexpired envelopes on a topic (no cursor movement)."""
        result = self._client.call("bus.peek", {"topic": topic})
        return [self._decode(obj) for obj in result["envelopes"]]

    @staticmethod
    def _decode(obj: dict[str, Any]) -> Envelope:
        return Envelope(topic=obj["topic"],
                        payload=from_hex(obj["payload"]),
                        sender=obj["sender"],
                        posted_at=obj["posted_at"], ttl=obj["ttl"])
