"""The four-stage on/off-chain protocol orchestration (§III, Fig. 2).

``OnOffChainProtocol`` drives one whole contract through:

1. **Split/Generate** — classify functions, split, pad the extra
   dispute functions, compile both halves deterministically;
2. **Deploy/Sign** — deploy the on-chain contract; every participant
   signs keccak256(off-chain bytecode) and exchanges signatures over
   the Whisper bus until everyone holds a fully signed copy;
3. **Submit/Challenge** — participants execute the off-chain contract
   locally; a representative submits the result on-chain; a challenge
   window lets any participant police the submission;
4. **Dispute/Resolve** — on a false submission (or a refusal to settle)
   any honest participant reveals the signed copy via
   ``deployVerifiedInstance()`` and forces the true result through
   ``returnDisputeResolution()`` → ``enforceDisputeResolution()``.

All on-chain gas is recorded into a :class:`GasLedger` keyed by stage,
which the benchmarks consume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Optional

from repro import obs
from repro.chain.contract import DeployedContract
from repro.chain.receipt import Receipt
from repro.chain.simulator import EthereumSimulator
from repro.core.analytics import GasLedger
from repro.core.annotations import SplitSpec
from repro.core.exceptions import (
    AgreementError,
    ChallengeWindowClosed,
    DisputeError,
    SigningError,
    StageError,
)
from repro.core.participants import Participant
from repro.core.splitter import SplitContracts, split_contract
from repro.crypto import keccak256, rlp
from repro.crypto.ecdsa import Signature
from repro.crypto.keys import Address
from repro.lang.compiler import CompilationResult, compile_source
from repro.offchain.executor import OffchainExecutor, OffchainRun
from repro.offchain.signing import (
    SignedCopy,
    assemble_signed_copy,
    sign_bytecode,
)
from repro.offchain.whisper import WhisperBus

#: Bus topic where protocols ask remote
#: :class:`~repro.net.participant.ParticipantNode` processes for
#: Deploy/Sign signatures.  Lives here (not in ``repro.net``) so the
#: net layer depends on the core and never the other way around.
SIGN_REQUEST_TOPIC = "sign-request"

#: Wall-clock seconds a protocol waits for remote signatures before
#: declaring the signature exchange failed.
REMOTE_SIGN_TIMEOUT = 30.0


class Stage(Enum):
    """Protocol lifecycle."""

    CREATED = "created"
    GENERATED = "split/generate"
    DEPLOYED = "deployed"
    SIGNED = "deploy/sign"
    PROPOSED = "submit/challenge"
    #: Netted settlement: the session's signed final state is bound
    #: into a committed batch root (the one-transaction-per-batch
    #: counterpart of PROPOSED).
    COMMITTED = "commit/batch"
    #: Netted settlement: the session's leaf was revealed on the
    #: aggregator to contest the committed claim.
    OPENED = "open/leaf"
    SETTLED = "settled"
    DISPUTED = "dispute/resolve"
    RESOLVED = "resolved"


@dataclass
class DisputeOutcome:
    """Result of a Dispute/Resolve escalation."""

    instance_address: Address
    deploy_receipt: Receipt
    resolve_receipt: Receipt
    outcome: Any

    @property
    def total_gas(self) -> int:
        """Combined gas of every receipt in this stage result."""
        return self.deploy_receipt.gas_used + self.resolve_receipt.gas_used


@dataclass
class ProtocolOutcome:
    """Final on-chain verdict."""

    resolved: bool
    outcome: Any
    via: str   # 'finalize' | 'dispute' | 'none'


@dataclass(frozen=True)
class StageResult:
    """Uniform return value of every protocol stage method.

    Carries the on-chain receipts the stage produced, the stage the
    protocol advanced to, and the stage-specific payload in ``value``
    (:class:`~repro.core.splitter.SplitContracts` after
    ``split_generate``, the deployed contract after ``deploy``, the
    :class:`~repro.offchain.signing.SignedCopy` after
    ``collect_signatures``, a :class:`DisputeOutcome` after ``dispute``
    — or ``None`` where the stage has nothing to report).
    """

    stage: Stage
    receipts: tuple[Receipt, ...] = ()
    value: Any = None

    @property
    def gas(self) -> int:
        """Total on-chain gas this stage burned."""
        return sum(receipt.gas_used for receipt in self.receipts)

    @property
    def receipt(self) -> Optional[Receipt]:
        """The single receipt, for one-transaction stages."""
        return self.receipts[0] if self.receipts else None

    @property
    def disputed(self) -> bool:
        """True when the stage escalated to Dispute/Resolve."""
        return isinstance(self.value, DisputeOutcome)


class OnOffChainProtocol:
    """Orchestrates one contract's life across the four stages."""

    def __init__(self, simulator: EthereumSimulator, whole_source: str,
                 contract_name: str, spec: SplitSpec,
                 participants: list[Participant],
                 bus: Optional[WhisperBus] = None) -> None:
        if len(participants) < 2:
            raise ValueError("the protocol needs at least two participants")
        self.simulator = simulator
        self.whole_source = whole_source
        self.contract_name = contract_name
        self.spec = spec
        self.participants = participants
        self.bus = bus or WhisperBus()
        self.ledger = GasLedger()
        self.stage = Stage.CREATED

        self.split: Optional[SplitContracts] = None
        self.compiled_onchain = None
        self.compiled_offchain = None
        self._onchain_compilation: Optional[CompilationResult] = None
        self._offchain_compilation: Optional[CompilationResult] = None
        self.onchain: Optional[DeployedContract] = None
        self.offchain_bytecode: Optional[bytes] = None
        self.signed_copies: dict[str, SignedCopy] = {}
        self._true_result: Any = None
        self._dispute_outcome: Optional[DisputeOutcome] = None
        #: Set by ``commit_batch`` when this session settles through a
        #: netted batch instead of its own submit/finalize pair.
        self.batch_commitment = None

    # ------------------------------------------------------------------
    # Stage 1: Split/Generate
    # ------------------------------------------------------------------

    def split_generate(self) -> StageResult:
        """Split the whole contract and compile both halves."""
        if self.stage is not Stage.CREATED:
            raise StageError(f"split_generate after {self.stage}")
        with obs.span(obs.names.SPAN_STAGE_SPLIT_GENERATE,
                      contract=self.contract_name):
            self.split = split_contract(
                self.whole_source, self.contract_name, self.spec,
            )
            if self.split.num_participants != len(self.participants):
                raise StageError(
                    f"contract declares {self.split.num_participants} "
                    f"participants but {len(self.participants)} "
                    f"were provided"
                )
            self._onchain_compilation = compile_source(
                self.split.onchain_source)
            self.compiled_onchain = self._onchain_compilation.contract(
                self.split.onchain_name)
            self._offchain_compilation = compile_source(
                self.split.offchain_source)
            self.compiled_offchain = self._offchain_compilation.contract(
                self.split.offchain_name)
        self.stage = Stage.GENERATED
        return StageResult(stage=self.stage, value=self.split)

    # ------------------------------------------------------------------
    # Stage 2: Deploy/Sign
    # ------------------------------------------------------------------

    def deploy(self, deployer: Participant,
               constructor_args: dict[str, Any] | None = None,
               offchain_state: dict[str, Any] | None = None,
               gas_limit: int = 6_000_000) -> StageResult:
        """Deploy the on-chain half and fix the off-chain bytecode."""
        if self.stage is not Stage.GENERATED:
            raise StageError("call split_generate() before deploy()")
        ordered_args = self._onchain_ctor_args(constructor_args or {})
        with obs.span(obs.names.SPAN_STAGE_DEPLOY,
                      contract=self.contract_name):
            self.onchain = self.simulator.deploy(
                deployer.account, self.compiled_onchain.init_code,
                self.compiled_onchain.abi, constructor_args=ordered_args,
                gas_limit=gas_limit,
            )
            self.ledger.record(Stage.DEPLOYED.value, "deploy onChain",
                               self.onchain.deploy_receipt, deployer.name)
            self.offchain_bytecode = self.build_offchain_bytecode(
                offchain_state or {})
        self.stage = Stage.DEPLOYED
        return StageResult(stage=self.stage,
                           receipts=(self.onchain.deploy_receipt,),
                           value=self.onchain)

    # -- deferred deployment (batched / engine-driven mining) ----------

    def prepare_deploy(self,
                       constructor_args: dict[str, Any] | None = None,
                       offchain_state: dict[str, Any] | None = None
                       ) -> bytes:
        """Build deployable init code without sending a transaction.

        The deferred twin of :meth:`deploy` for callers that queue the
        deployment into a mempool themselves (the multi-session
        engine).  Fixes the off-chain bytecode as a side effect, just
        like :meth:`deploy`; pair with :meth:`attach_onchain` once the
        deployment transaction has been mined.
        """
        if self.stage is not Stage.GENERATED:
            raise StageError("call split_generate() before prepare_deploy()")
        ordered_args = self._onchain_ctor_args(constructor_args or {})
        init_code = (self.compiled_onchain.init_code
                     + self.compiled_onchain.abi.encode_constructor_args(
                         ordered_args))
        self.offchain_bytecode = self.build_offchain_bytecode(
            offchain_state or {})
        return init_code

    def attach_onchain(self, receipt: Receipt) -> DeployedContract:
        """Bind a mined deployment receipt from :meth:`prepare_deploy`.

        The caller is responsible for ledger recording (the engine
        records centrally for all sessions it schedules).
        """
        if receipt.contract_address is None:
            raise StageError(
                "deployment receipt carries no contract address "
                f"(status={receipt.status})"
            )
        self.onchain = DeployedContract(
            address=receipt.contract_address,
            abi=self.compiled_onchain.abi,
            simulator=self.simulator,
            deploy_receipt=receipt,
        )
        self.stage = Stage.DEPLOYED
        return self.onchain

    def _onchain_ctor_args(self, named: dict[str, Any]) -> list[Any]:
        """Map named whole-contract args onto the split constructor."""
        contract = self._onchain_compilation.unit.contract(
            self.split.onchain_name)
        ctor = contract.constructor
        if ctor is None:
            if named:
                raise StageError(
                    "the on-chain contract has no constructor but "
                    f"arguments were provided: {sorted(named)}"
                )
            return []
        ordered = []
        for param in ctor.parameters:
            if param.name not in named:
                raise StageError(
                    f"missing constructor argument {param.name!r} "
                    f"(needed: {[p.name for p in ctor.parameters]})"
                )
            ordered.append(named[param.name])
        return ordered

    def build_offchain_bytecode(self,
                                state_values: dict[str, Any]) -> bytes:
        """Init code + ABI-encoded constructor args = signable bytecode.

        Constructor values: the participants array is auto-filled from
        the participant list; every other off-chain state variable must
        appear in ``state_values``.
        """
        contract = self._offchain_compilation.unit.contract(
            self.split.offchain_name)
        ctor = contract.constructor
        values: list[Any] = []
        for param in ctor.parameters:
            name = param.name  # "__<var>" or "__<var>_<index>"
            stripped = name.removeprefix("__")
            if "_" in stripped:
                var, _sep, index_text = stripped.rpartition("_")
                if var == self.spec.participants_var and \
                        index_text.isdigit():
                    values.append(
                        self.participants[int(index_text)].address)
                    continue
                if var in state_values and index_text.isdigit():
                    values.append(state_values[var][int(index_text)])
                    continue
            if stripped in state_values:
                values.append(state_values[stripped])
                continue
            raise StageError(
                f"no value provided for off-chain state {stripped!r}"
            )
        encoded = self.compiled_offchain.abi.encode_constructor_args(values)
        return self.compiled_offchain.init_code + encoded

    @property
    def _signing_topic(self) -> str:
        # Suffixed with a digest of the participant set so concurrent
        # sessions of the same contract on a *shared* bus (the
        # networked deployment) keep their signature exchanges apart.
        # Deterministic in the participants alone, so the in-process
        # and networked topologies compute the same topic.
        member_digest = keccak256(
            b"".join(p.address.value for p in self.participants))
        return (f"signed-copy:{self.contract_name}:"
                f"{member_digest[:4].hex()}")

    def collect_signatures(self) -> StageResult:
        """Run the signature exchange over Whisper (Deploy/Sign stage).

        Every willing participant signs the off-chain bytecode hash and
        posts (address ‖ signature) to the topic; everyone then
        assembles and verifies a fully signed copy.  Raises
        :class:`SigningError` naming any refusing participant — per the
        paper, nobody should touch the on-chain contract before holding
        a complete signed copy.
        """
        if self.stage is not Stage.DEPLOYED:
            raise StageError("deploy() must precede collect_signatures()")
        self.sync_bus_clock()
        topic = self._signing_topic
        with obs.span(obs.names.SPAN_STAGE_SIGN,
                      contract=self.contract_name,
                      participants=len(self.participants)):
            local = [p for p in self.participants if not p.remote]
            remote = [p for p in self.participants if p.remote]
            refusers = [p.name for p in local if not p.will_sign]
            for participant in self.participants:
                self.bus.subscribe(participant.name, topic)
            for participant in local:
                if not participant.will_sign:
                    continue
                signature = sign_bytecode(
                    participant.key, self.offchain_bytecode)
                payload = rlp.encode(
                    [participant.address.value, signature.to_bytes()])
                self.bus.post(topic, payload, sender=participant.name)
            if refusers:
                raise SigningError(
                    f"participants refused to sign: {refusers}; abort "
                    "before any deposit (rule 1 of Table I)"
                )
            addresses = [p.address for p in self.participants]
            if remote:
                # Ask the participant processes holding those keys to
                # sign, then wait (wall clock, not bus clock) for
                # their signatures to land on the session topic.
                request = rlp.encode(
                    [topic.encode("utf-8"), self.offchain_bytecode]
                    + [p.address.value for p in remote])
                self.bus.post(SIGN_REQUEST_TOPIC, request,
                              sender=self.contract_name)
                deadline = time.monotonic() + REMOTE_SIGN_TIMEOUT
                while not self._signatures_complete(topic, addresses):
                    if time.monotonic() > deadline:
                        missing = sorted(
                            p.name for p in remote
                            if p.address not in
                            self._collect_posted(topic))
                        raise SigningError(
                            "remote participants never signed within "
                            f"{REMOTE_SIGN_TIMEOUT:.0f}s: {missing}")
                    time.sleep(0.01)
            copy = assemble_signed_copy(
                self.offchain_bytecode,
                self._collect_posted(topic), addresses)
            for participant in self.participants:
                self.signed_copies[participant.name] = copy
        self.stage = Stage.SIGNED
        return StageResult(stage=self.stage, value=copy)

    def _collect_posted(self, topic: str) -> dict[Address, Signature]:
        """Signatures currently posted on the session's sign topic."""
        collected: dict[Address, Signature] = {}
        for envelope in self.bus.peek_all(topic):
            address_raw, sig_raw = rlp.decode(envelope.payload)
            collected[Address(address_raw)] = \
                Signature.from_bytes(sig_raw)
        return collected

    def _signatures_complete(self, topic: str,
                             addresses: list[Address]) -> bool:
        """True once every participant's signature is on the topic."""
        collected = self._collect_posted(topic)
        return all(address in collected for address in addresses)

    def pay_security_deposits(self) -> StageResult:
        """Every participant escrows the agreed security deposit.

        With ``spec.security_deposit > 0``, ``deployVerifiedInstance``
        is gated on all deposits being paid (Algorithm 2's
        ``amountMet``), so this must happen right after signing.
        """
        if self.spec.security_deposit <= 0:
            raise StageError("the split spec sets no security deposit")
        if self.onchain is None:
            raise StageError("deploy() before paying deposits")
        receipts = []
        with obs.span(obs.names.SPAN_STAGE_DEPOSITS,
                      contract=self.contract_name):
            for participant in self.participants:
                receipt = self.onchain.transact(
                    "paySecurityDeposit", sender=participant.account,
                    value=self.spec.security_deposit)
                self.ledger.record(self.stage.value, "paySecurityDeposit",
                                   receipt, participant.name)
                receipts.append(receipt)
        return StageResult(stage=self.stage, receipts=tuple(receipts))

    def withdraw_security_deposits(self) -> dict[str, bool]:
        """Each participant reclaims any remaining deposit.

        Returns name -> withdrew?; a participant whose deposit was
        forfeited to the challenger (the §IV penalty) gets False.
        """
        results: dict[str, bool] = {}
        for participant in self.participants:
            remaining = self.onchain.call(
                "securityDeposit", participant.address)
            if remaining > 0:
                receipt = self.onchain.transact(
                    "withdrawSecurityDeposit",
                    sender=participant.account)
                self.ledger.record(self.stage.value,
                                   "withdrawSecurityDeposit", receipt,
                                   participant.name)
                results[participant.name] = True
            else:
                results[participant.name] = False
        return results

    # ------------------------------------------------------------------
    # Stage 3: Submit/Challenge
    # ------------------------------------------------------------------

    def execute_off_chain(self,
                          participant: Participant | None = None) -> OffchainRun:
        """One participant's private local run of the off-chain contract."""
        if self.offchain_bytecode is None:
            raise StageError("off-chain bytecode is not fixed yet")
        executor = OffchainExecutor(
            timestamp=self.simulator.current_timestamp,
            block_number=self.simulator.chain.latest_block.number,
        )
        who = (participant or self.participants[0])
        with obs.span(obs.names.SPAN_OFFCHAIN_EXECUTE,
                      contract=self.contract_name, participant=who.name):
            run = executor.execute(
                self.offchain_bytecode, self.compiled_offchain.abi,
                caller=who.address,
            )
        if obs.enabled():
            obs.inc(obs.names.METRIC_OFFCHAIN_GAS,
                    run.gas_equivalent + run.deploy_gas_equivalent)
        self._true_result = run.result
        return run

    def reach_unanimous_agreement(self) -> Any:
        """All participants execute locally and compare results (§II-B).

        Deterministic bytecode ⇒ identical results for honest parties;
        this models the paper's "unanimous agreement" check.
        """
        runs = [self.execute_off_chain(p) for p in self.participants]
        results = {repr(run.result) for run in runs}
        if len(results) != 1:
            raise AgreementError(
                f"participants computed divergent results: {results}"
            )
        return runs[0].result

    def submit_result(self, representative: Participant,
                      result: Any | None = None) -> StageResult:
        """The representative submits the (possibly falsified) result."""
        if self.stage is not Stage.SIGNED:
            raise StageError("collect_signatures() must precede submission")
        if self.spec.challenge_period <= 0:
            raise StageError("submit/challenge is disabled (period = 0)")
        if self._true_result is None:
            self.execute_off_chain(representative)
        claim = representative.claimed_result(
            result if result is not None else self._true_result)
        with obs.span(obs.names.SPAN_STAGE_SUBMIT,
                      contract=self.contract_name,
                      representative=representative.name):
            receipt = self.onchain.transact(
                "submitResult", claim, sender=representative.account)
            self.ledger.record(Stage.PROPOSED.value, "submitResult",
                               receipt, representative.name)
        self.sync_bus_clock()
        self.stage = Stage.PROPOSED
        return StageResult(stage=self.stage, receipts=(receipt,))

    # -- challenge-window clock plumbing -------------------------------

    def sync_bus_clock(self) -> None:
        """Advance the Whisper clock to the chain's current timestamp.

        The bus starts at 0 while blocks carry wall-clock timestamps;
        keeping the two clocks on one timeline means envelope TTLs and
        the challenge deadline are measured against the same time
        source (the tentpole requirement of the window fix).  The bus
        clock only moves forward, so repeated syncs are idempotent.
        """
        chain_now = self.simulator.current_timestamp
        if chain_now > self.bus.now:
            self.bus.advance_time(chain_now - self.bus.now)

    def challenge_deadline(self) -> Optional[int]:
        """The live proposal's ``challengeDeadline``, if one exists.

        ``None`` when the contract was rendered without a challenge
        period or no result has been submitted yet.  A session bound
        into a netted batch is governed by the *batch* window instead:
        its commitment's deadline bounds openings and disputes alike.
        """
        if self.batch_commitment is not None:
            return self.batch_commitment.challenge_deadline
        if self.onchain is None or self.spec.challenge_period <= 0:
            return None
        if not self.onchain.call("hasProposal"):
            return None
        return self.onchain.call("challengeDeadline")

    def challenge_window_open(self) -> bool:
        """Whether a dispute transaction sent now would beat the clock.

        Measured against :meth:`Blockchain.next_timestamp` — the
        timestamp the *next mined block* will carry — because that is
        the value ``block.timestamp`` takes when the dispute executes,
        not the (older) latest-block timestamp.
        """
        deadline = self.challenge_deadline()
        if deadline is None:
            return True
        return self.simulator.chain.next_timestamp() < deadline

    def _require_window_open(self, actor: str) -> None:
        """Reject a dispute attempt once the window has closed."""
        deadline = self.challenge_deadline()
        if deadline is None:
            return
        next_ts = self.simulator.chain.next_timestamp()
        if next_ts >= deadline:
            if obs.enabled():
                obs.inc(obs.names.METRIC_CHALLENGE_LATE_DISPUTES)
            raise ChallengeWindowClosed(
                f"challenge window closed: the dispute block would "
                f"carry timestamp {next_ts} but the deadline was "
                f"{deadline} ({actor} is {next_ts - deadline}s late)"
            )
        if obs.enabled():
            obs.observe(obs.names.METRIC_CHALLENGE_DEADLINE_MARGIN,
                        deadline - next_ts)

    def run_challenge_window(self) -> StageResult:
        """Honest participants police the submitted result.

        Each honest participant compares the on-chain proposal with its
        own local execution; on a mismatch it escalates to the dispute
        path immediately — *provided the challenge window is still
        open* by the chain clock.  A challenge attempted after
        ``challengeDeadline`` raises :class:`ChallengeWindowClosed`:
        the false proposal then stands and will finalize (the paper's
        incentive argument is that a liar cannot *count* on every
        honest party sleeping through the window).  The returned
        :class:`StageResult` has ``value=None`` (and no receipts) when
        the proposal was clean, or carries the
        :class:`DisputeOutcome` when a challenger overturned it.
        """
        if self.stage is not Stage.PROPOSED:
            raise StageError("no proposal to challenge")
        self.sync_bus_clock()
        with obs.span(obs.names.SPAN_STAGE_CHALLENGE,
                      contract=self.contract_name) as challenge_span:
            proposed = self.onchain.call("proposedResult")
            window_open = self.challenge_window_open()
            truth = self.reach_unanimous_agreement()
            clean = results_equal(proposed, truth)
            challenge_span.set_label(clean=clean,
                                     window_open=window_open)
        if clean:
            return StageResult(stage=self.stage, value=None)
        for participant in self.participants:
            if participant.will_challenge:
                return self.dispute(participant)
        raise DisputeError(
            "a false result was submitted but no honest participant "
            "challenged — all parties silent or dishonest"
        )

    def finalize(self, caller: Participant) -> StageResult:
        """Close the challenge window and apply the proposal."""
        if self.stage is not Stage.PROPOSED:
            raise StageError("nothing to finalize")
        with obs.span(obs.names.SPAN_STAGE_FINALIZE,
                      contract=self.contract_name, caller=caller.name):
            deadline = self.onchain.call("challengeDeadline")
            self.simulator.advance_time_to(deadline)
            receipt = self.onchain.transact(
                "finalizeResult", sender=caller.account)
            self.ledger.record(Stage.PROPOSED.value, "finalizeResult",
                               receipt, caller.name)
        self.sync_bus_clock()
        self.stage = Stage.SETTLED
        return StageResult(stage=self.stage, receipts=(receipt,))

    # ------------------------------------------------------------------
    # Stage 3 (netted): Commit/Open
    # ------------------------------------------------------------------

    def commit_batch(self, commitment) -> StageResult:
        """Bind this session into a committed netted batch.

        The netted counterpart of :meth:`submit_result`: instead of a
        per-session proposal, the session's signed final state is one
        leaf under the batch Merkle root a
        :class:`~repro.core.settlement.SettlementBatcher` committed
        with a single on-chain transaction.  No receipts are recorded
        here — the commit transaction is batch-level cost carried by
        the batcher's own ledger, which is the whole point of netting.
        """
        if self.stage is not Stage.SIGNED:
            raise StageError(
                "collect_signatures() must precede commit_batch()")
        if self.batch_commitment is not None:
            raise StageError("this session is already in a batch")
        self.sync_bus_clock()
        self.batch_commitment = commitment
        self.stage = Stage.COMMITTED
        return StageResult(stage=self.stage, value=commitment)

    def open_leaf(self, challenger: Participant,
                  gas_limit: int = 3_000_000) -> StageResult:
        """Reveal this session's leaf on the aggregator (contest it).

        Opening is the netted dispute entry: the challenger proves on
        chain — leaf, index and Merkle proof against the committed
        root — that this session is part of the batch, before driving
        the unchanged Dispute/Resolve machinery on the session
        contract.  The batch challenge window bounds openings exactly
        as the per-session window bounds disputes: once it closed (by
        the timestamp the opening block would carry) this raises
        :class:`ChallengeWindowClosed`, and the rendered aggregator
        enforces the same bound with a ``require``.
        """
        if self.batch_commitment is None:
            raise StageError(
                "no batch commitment to open — commit_batch() first")
        if self.stage is not Stage.COMMITTED:
            raise StageError(f"open_leaf after {self.stage}")
        self.sync_bus_clock()
        self._require_window_open(challenger.name)
        commitment = self.batch_commitment
        with obs.span(obs.names.SPAN_SETTLEMENT_OPEN,
                      contract=self.contract_name,
                      challenger=challenger.name,
                      index=commitment.index):
            receipt = commitment.batch.aggregator.transact(
                "openLeaf", commitment.leaf, commitment.index,
                *commitment.proof,
                sender=challenger.account, gas_limit=gas_limit)
            self.record_leaf_opening(receipt, challenger.name)
        return StageResult(stage=self.stage, receipts=(receipt,),
                           value=commitment)

    def record_leaf_opening(self, receipt: Receipt, actor: str) -> None:
        """Register a mined ``openLeaf`` transaction (deferred mining).

        Shared by :meth:`open_leaf` and the engine's batched opening
        round: records the gas under ``Stage.OPENED`` in this session's
        ledger and advances the stage machine.
        """
        commitment = self.batch_commitment
        self.ledger.record(Stage.OPENED.value, "openLeaf", receipt,
                           actor)
        commitment.batch.opened.add(commitment.index)
        self.stage = Stage.OPENED
        if obs.enabled():
            obs.inc(obs.names.METRIC_SETTLEMENT_OPENINGS)

    def settle_batch_commitment(self) -> StageResult:
        """Mark this session settled by its finalized batch.

        Called by the batcher after ``finalizeBatch`` for every member
        whose leaf went unopened: the committed root plus the signed
        state is the settlement instrument and the session contract is
        never touched again.
        """
        if self.batch_commitment is None:
            raise StageError("this session is not in a batch")
        if self.stage is not Stage.COMMITTED:
            raise StageError(
                f"settle_batch_commitment after {self.stage}")
        if not self.batch_commitment.finalized:
            raise StageError("the batch has not finalized yet")
        self.stage = Stage.SETTLED
        return StageResult(stage=self.stage,
                           value=self.batch_commitment)

    # ------------------------------------------------------------------
    # Stage 4: Dispute/Resolve
    # ------------------------------------------------------------------

    def dispute(self, challenger: Participant,
                gas_limit: int = 6_000_000) -> StageResult:
        """Reveal the signed copy and force the true result on-chain.

        When a result has been submitted, the dispute must land before
        ``challengeDeadline`` (by the timestamp of the block that
        would carry it); afterwards :class:`ChallengeWindowClosed` is
        raised before anything touches the chain.  The rendered
        contract enforces the same bound with a ``require``, so even a
        hand-crafted transaction cannot dispute late.  A session that
        is already resolved or settled raises :class:`StageError`, also
        before anything reaches the chain.
        """
        if self.onchain is None:
            raise StageError("no on-chain contract deployed")
        if self.stage in (Stage.RESOLVED, Stage.SETTLED):
            raise StageError(f"cannot dispute after {self.stage}")
        self.sync_bus_clock()
        self._require_window_open(challenger.name)
        copy = self.signed_copies.get(challenger.name)
        if copy is None:
            raise DisputeError(
                f"{challenger.name} holds no signed copy — cannot dispute"
            )
        copy.require_valid([p.address for p in self.participants])

        with obs.span(obs.names.SPAN_STAGE_DISPUTE,
                      contract=self.contract_name,
                      challenger=challenger.name):
            deploy_receipt = self.onchain.transact(
                "deployVerifiedInstance", copy.bytecode,
                *copy.vrs_arguments(),
                sender=challenger.account, gas_limit=gas_limit,
            )
            self.ledger.record(Stage.DISPUTED.value,
                               "deployVerifiedInstance",
                               deploy_receipt, challenger.name)
            instance_address = Address(self.onchain.call("deployedAddr"))
            instance = self.simulator.contract_at(
                instance_address, self.compiled_offchain.abi)
            resolve_receipt = instance.transact(
                "returnDisputeResolution", self.onchain.address,
                sender=challenger.account, gas_limit=gas_limit,
            )
            self.ledger.record(Stage.DISPUTED.value,
                               "returnDisputeResolution",
                               resolve_receipt, challenger.name)
            outcome = self.record_dispute(
                instance_address, deploy_receipt, resolve_receipt)
        return StageResult(stage=self.stage,
                           receipts=(deploy_receipt, resolve_receipt),
                           value=outcome)

    def record_dispute(self, instance_address: Address,
                       deploy_receipt: Receipt,
                       resolve_receipt: Receipt) -> DisputeOutcome:
        """Register a completed dispute escalation (deferred mining).

        Reads the enforced verdict back from the on-chain contract and
        advances the stage machine — shared by :meth:`dispute` and the
        engine's batched dispute path.
        """
        self._dispute_outcome = DisputeOutcome(
            instance_address=instance_address,
            deploy_receipt=deploy_receipt,
            resolve_receipt=resolve_receipt,
            outcome=self.onchain.call("resolvedOutcome"),
        )
        self.stage = Stage.RESOLVED
        return self._dispute_outcome

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def call_onchain(self, participant: Participant, function_name: str,
                     *args: Any, value: int = 0,
                     stage_label: str | None = None,
                     gas_limit: int = 3_000_000) -> Receipt:
        """Invoke any on-chain function, recording gas in the ledger."""
        receipt = self.onchain.transact(
            function_name, *args, sender=participant.account, value=value,
            gas_limit=gas_limit,
        )
        self.ledger.record(
            stage_label or self.stage.value, function_name, receipt,
            participant.name,
        )
        return receipt

    def outcome(self) -> ProtocolOutcome:
        """The current on-chain verdict."""
        if self.onchain is None:
            return ProtocolOutcome(resolved=False, outcome=None, via="none")
        resolved = self.onchain.call("disputeResolved")
        if not resolved:
            if (self.batch_commitment is not None
                    and self.stage is Stage.SETTLED):
                # Netted optimistic settlement: the session contract
                # was never touched; the finalized batch commitment
                # carries the verdict.
                return ProtocolOutcome(
                    resolved=True,
                    outcome=self.batch_commitment.claim,
                    via="netted")
            return ProtocolOutcome(resolved=False, outcome=None, via="none")
        value = self.onchain.call("resolvedOutcome")
        via = "dispute" if self._dispute_outcome is not None else "finalize"
        return ProtocolOutcome(resolved=True, outcome=value, via=via)


def results_equal(a: Any, b: Any) -> bool:
    """Compare an on-chain proposal with a locally computed result.

    ABI-decoded on-chain values and off-chain executor results may
    represent the same value as ``bytes`` vs ``int``; the protocol and
    the engine both use this tolerant comparison when policing the
    challenge window.
    """
    if isinstance(a, bytes) and isinstance(b, int):
        return int.from_bytes(a, "big") == b
    if isinstance(b, bytes) and isinstance(a, int):
        return int.from_bytes(b, "big") == a
    return a == b
