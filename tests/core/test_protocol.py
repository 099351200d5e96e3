"""The four-stage protocol orchestration."""

import pytest

from repro.apps.betting import deploy_betting, make_betting_protocol
from repro.core import (
    DisputeError,
    Participant,
    SigningError,
    Stage,
    StageError,
    Strategy,
)
from repro.core.protocol import OnOffChainProtocol


@pytest.fixture
def protocol(sim, alice, bob):
    return make_betting_protocol(sim, alice, bob, seed=42, rounds=25)


def _through_signing(protocol, alice, bob):
    deploy_betting(protocol, alice)
    copy = protocol.collect_signatures().value
    plan = protocol.betting_plan
    protocol.call_onchain(alice, "deposit", value=plan["stake"])
    protocol.call_onchain(bob, "deposit", value=plan["stake"])
    return copy, plan


def test_stage_order_enforced(sim, alice, bob):
    protocol = OnOffChainProtocol(
        simulator=sim,
        whole_source=make_betting_protocol(sim, alice, bob).whole_source,
        contract_name="Betting",
        spec=make_betting_protocol(sim, alice, bob).spec,
        participants=[alice, bob],
    )
    with pytest.raises(StageError):
        protocol.deploy(alice)
    protocol.split_generate()
    with pytest.raises(StageError):
        protocol.collect_signatures()
    with pytest.raises(StageError):
        protocol.split_generate()  # cannot re-generate


def test_minimum_two_participants(sim, alice):
    from repro.apps.betting import BETTING_SOURCE, BETTING_SPEC

    with pytest.raises(ValueError):
        OnOffChainProtocol(
            simulator=sim, whole_source=BETTING_SOURCE,
            contract_name="Betting", spec=BETTING_SPEC,
            participants=[alice],
        )


def test_participant_count_must_match_contract(sim, alice, bob, carol):
    from repro.apps.betting import BETTING_SOURCE, BETTING_SPEC

    protocol = OnOffChainProtocol(
        simulator=sim, whole_source=BETTING_SOURCE,
        contract_name="Betting", spec=BETTING_SPEC,
        participants=[alice, bob, carol],  # contract says address[2]
    )
    with pytest.raises(StageError):
        protocol.split_generate()


def test_missing_constructor_arg_detected(protocol, alice):
    with pytest.raises(StageError, match="missing constructor"):
        protocol.deploy(alice, constructor_args={"a": alice.address})


def test_signed_copy_distributed_to_all(protocol, alice, bob):
    copy, __ = _through_signing(protocol, alice, bob)
    assert protocol.signed_copies["alice"] == copy
    assert protocol.signed_copies["bob"] == copy
    assert copy.verify([alice.address, bob.address])


def test_refuser_blocks_signing(sim, alice):
    lazy = Participant(account=sim.accounts[1], name="lazy",
                       strategy=Strategy.REFUSES_TO_SIGN)
    protocol = make_betting_protocol(sim, alice, lazy)
    deploy_betting(protocol, alice)
    with pytest.raises(SigningError, match="lazy"):
        protocol.collect_signatures()


def test_unanimous_agreement(protocol, alice, bob):
    _through_signing(protocol, alice, bob)
    result = protocol.reach_unanimous_agreement()
    from repro.apps.betting import reference_reveal

    assert result == reference_reveal(42, 25)


def test_happy_path_finalize(protocol, sim, alice, bob):
    __, plan = _through_signing(protocol, alice, bob)
    sim.advance_time_to(plan["timeline"].t2 + 10)
    protocol.submit_result(bob)
    assert not protocol.run_challenge_window().disputed
    protocol.finalize(bob)
    outcome = protocol.outcome()
    assert outcome.resolved and outcome.via == "finalize"
    assert protocol.stage is Stage.SETTLED


def test_false_submission_triggers_dispute(protocol, sim, alice, bob):
    alice.strategy = Strategy.LIES_ABOUT_RESULT
    __, plan = _through_signing(protocol, alice, bob)
    sim.advance_time_to(plan["timeline"].t2 + 10)
    protocol.submit_result(alice)
    dispute = protocol.run_challenge_window()
    assert dispute.disputed
    outcome = protocol.outcome()
    assert outcome.via == "dispute"
    from repro.apps.betting import reference_reveal

    assert outcome.outcome == reference_reveal(42, 25)


def test_dispute_without_submission(protocol, sim, alice, bob):
    """Refusal to settle: the winner escalates directly after T3."""
    __, plan = _through_signing(protocol, alice, bob)
    sim.advance_time_to(plan["timeline"].t3 + 10)
    dispute = protocol.dispute(bob)
    assert dispute.gas > 0
    assert protocol.outcome().resolved


def test_double_submission_rejected(protocol, sim, alice, bob):
    __, plan = _through_signing(protocol, alice, bob)
    sim.advance_time_to(plan["timeline"].t2 + 10)
    protocol.submit_result(bob)
    with pytest.raises(StageError):
        protocol.submit_result(alice)


def test_finalize_before_deadline_reverts(protocol, sim, alice, bob):
    from repro.chain import TransactionFailed

    __, plan = _through_signing(protocol, alice, bob)
    sim.advance_time_to(plan["timeline"].t2 + 10)
    protocol.submit_result(bob)
    # Direct on-chain call without warping time must fail.
    with pytest.raises(TransactionFailed):
        protocol.onchain.transact("finalizeResult", sender=bob.account)


def test_dispute_after_finalize_rejected(protocol, sim, alice, bob):
    from repro.chain import TransactionFailed

    __, plan = _through_signing(protocol, alice, bob)
    sim.advance_time_to(plan["timeline"].t2 + 10)
    protocol.submit_result(bob)
    protocol.finalize(bob)
    copy = protocol.signed_copies["alice"]
    with pytest.raises(TransactionFailed):
        protocol.onchain.transact(
            "deployVerifiedInstance", copy.bytecode,
            *copy.vrs_arguments(), sender=alice.account,
            gas_limit=6_000_000)


def test_second_dispute_rejected(protocol, sim, alice, bob):
    from repro.chain import TransactionFailed

    __, plan = _through_signing(protocol, alice, bob)
    sim.advance_time_to(plan["timeline"].t3 + 10)
    protocol.dispute(bob)
    copy = protocol.signed_copies["alice"]
    with pytest.raises(TransactionFailed):
        protocol.onchain.transact(
            "deployVerifiedInstance", copy.bytecode,
            *copy.vrs_arguments(), sender=alice.account,
            gas_limit=6_000_000)


def test_dispute_after_resolution_raises_before_touching_chain(
        protocol, sim, alice, bob):
    __, plan = _through_signing(protocol, alice, bob)
    sim.advance_time_to(plan["timeline"].t3 + 10)
    protocol.dispute(bob)
    assert protocol.stage is Stage.RESOLVED
    height = sim.chain.latest_block.number
    total = protocol.ledger.total()
    with pytest.raises(StageError):
        protocol.dispute(alice)
    assert sim.chain.latest_block.number == height
    assert protocol.ledger.total() == total


def test_dispute_after_finalize_raises_before_touching_chain(
        protocol, sim, alice, bob):
    __, plan = _through_signing(protocol, alice, bob)
    sim.advance_time_to(plan["timeline"].t2 + 10)
    protocol.submit_result(alice)
    protocol.finalize(bob)
    assert protocol.stage is Stage.SETTLED
    height = sim.chain.latest_block.number
    total = protocol.ledger.total()
    with pytest.raises(StageError):
        protocol.dispute(bob)
    assert sim.chain.latest_block.number == height
    assert protocol.ledger.total() == total


def test_outsider_cannot_dispute(protocol, sim, alice, bob):
    from repro.chain import TransactionFailed

    __, plan = _through_signing(protocol, alice, bob)
    outsider = sim.accounts[7]
    copy = protocol.signed_copies["alice"]
    with pytest.raises(TransactionFailed):
        protocol.onchain.transact(
            "deployVerifiedInstance", copy.bytecode,
            *copy.vrs_arguments(), sender=outsider,
            gas_limit=6_000_000)


def test_dispute_requires_signed_copy(protocol, sim, alice, bob):
    deploy_betting(protocol, alice)
    with pytest.raises(DisputeError):
        protocol.dispute(alice)


def test_all_silent_dishonest_raises(protocol, sim, alice, bob):
    alice.strategy = Strategy.LIES_ABOUT_RESULT
    bob.strategy = Strategy.SILENT
    __, plan = _through_signing(protocol, alice, bob)
    sim.advance_time_to(plan["timeline"].t2 + 10)
    protocol.submit_result(alice)
    with pytest.raises(DisputeError):
        protocol.run_challenge_window()


def test_gas_ledger_tracks_stages(protocol, sim, alice, bob):
    __, plan = _through_signing(protocol, alice, bob)
    sim.advance_time_to(plan["timeline"].t3 + 10)
    protocol.dispute(bob)
    stages = protocol.ledger.by_stage()
    assert stages["deployed"] > 0
    assert stages["dispute/resolve"] > 0
    labels = protocol.ledger.by_label()
    assert "deployVerifiedInstance" in labels
    assert "returnDisputeResolution" in labels


def test_outcome_before_resolution(protocol, alice, bob):
    deploy_betting(protocol, alice)
    outcome = protocol.outcome()
    assert not outcome.resolved and outcome.via == "none"
