"""Fig. 2 — the four-stage mechanism, costed stage by stage.

Fig. 2 is the paper's architecture diagram; the measurable claim behind
it is *where* cost lives in each stage:

* Split/Generate — zero on-chain gas (pure local compilation);
* Deploy/Sign — one deployment transaction; signatures travel
  off-chain over Whisper (bytes, not gas);
* Submit/Challenge — one cheap submission + finalization when everyone
  is honest, and crucially **zero bytes of the off-chain contract ever
  reach the chain**;
* Dispute/Resolve — the expensive path (Table II), paid only when
  someone misbehaves.

This benchmark runs an honest game and a disputed game and prints the
per-stage gas so the asymmetry is visible.
"""

from __future__ import annotations


from repro.apps.betting import deploy_betting, make_betting_protocol
from repro.chain import EthereumSimulator
from repro.core import Participant, Strategy


def _signed_game(dishonest: bool):
    """A betting game through Deploy/Sign, before any deposit."""
    sim = EthereumSimulator()
    alice = Participant(
        account=sim.accounts[0], name="alice",
        strategy=Strategy.LIES_ABOUT_RESULT if dishonest
        else Strategy.HONEST,
    )
    bob = Participant(account=sim.accounts[1], name="bob")
    protocol = make_betting_protocol(sim, alice, bob, seed=42, rounds=25)
    deploy_betting(protocol, alice)
    protocol.collect_signatures()
    return sim, alice, bob, protocol


def _run_game(dishonest: bool):
    sim, alice, bob, protocol = _signed_game(dishonest)
    plan = protocol.betting_plan
    protocol.call_onchain(alice, "deposit", value=plan["stake"],
                          stage_label="submit/challenge")
    protocol.call_onchain(bob, "deposit", value=plan["stake"],
                          stage_label="submit/challenge")
    sim.advance_time_to(plan["timeline"].t2 + 1)
    protocol.submit_result(alice)
    dispute = protocol.run_challenge_window().value
    if dispute is None:
        protocol.finalize(bob)
    return protocol, dispute


def test_fig2_honest_run_stage_costs(benchmark, report):
    protocol, dispute = benchmark.pedantic(
        _run_game, args=(False,), iterations=1)
    assert dispute is None
    stages = protocol.ledger.by_stage()
    report.add("Fig. 2 (four-stage mechanism)",
               "honest: split/generate [gas]", "0", "0",
               "local compilation only")
    report.add("Fig. 2 (four-stage mechanism)",
               "honest: deploy/sign [gas]", "1 deploy",
               f"{stages.get('deployed', 0):,}",
               f"+{protocol.bus.bytes_transferred:,}B over Whisper")
    report.add("Fig. 2 (four-stage mechanism)",
               "honest: submit/challenge [gas]", "cheap",
               f"{stages.get('submit/challenge', 0):,}",
               "deposits + submitResult + finalizeResult")
    report.add("Fig. 2 (four-stage mechanism)",
               "honest: dispute/resolve [gas]", "0",
               f"{stages.get('dispute/resolve', 0):,}",
               "never entered")
    assert stages.get("dispute/resolve", 0) == 0
    # Privacy: the off-chain bytecode never touched the chain.
    assert protocol.onchain.call("deployedAddr") == b"\x00" * 20


def test_fig2_disputed_run_stage_costs(timed, report):
    protocol, dispute = timed(_run_game, True)
    assert dispute is not None
    stages = protocol.ledger.by_stage()
    report.add("Fig. 2 (four-stage mechanism)",
               "disputed: dispute/resolve [gas]", "Table II",
               f"{stages['dispute/resolve']:,}",
               "paid only because the representative lied")
    # The dispute stage dominates the submit stage.
    assert stages["dispute/resolve"] > stages["submit/challenge"]
    # The true result prevailed.
    from repro.apps.betting import reference_reveal

    assert protocol.outcome().outcome == reference_reveal(42, 25)


def test_fig2_dispute_premium(timed, report):
    """Dishonesty strictly raises total on-chain cost — the economic
    incentive (§III) that makes honesty rational."""
    honest, __ = timed(_run_game, False)
    disputed, __ = _run_game(True)
    honest_total = honest.ledger.total()
    disputed_total = disputed.ledger.total()
    report.add("Fig. 2 (four-stage mechanism)",
               "total gas honest vs disputed", "<",
               f"{honest_total:,}/{disputed_total:,}",
               "misbehaving always costs more")
    assert disputed_total > honest_total


def test_fig2_signature_exchange_is_offchain_only(timed, report):
    __, __, __, protocol = timed(_signed_game, False)
    # Two participants, one signature envelope each.  Counted right
    # after the exchange: the envelopes expire with their Whisper TTL
    # once the game's clock moves on to T2.
    envelopes = protocol.bus.peek_all(protocol._signing_topic)
    assert len(envelopes) == 2
    # No signature went on-chain: Deploy/Sign paid for the deployment
    # transaction only.
    deployed = [entry.label for entry in protocol.ledger.entries
                if entry.stage == "deployed"]
    assert deployed == ["deploy onChain"]
    assert protocol.ledger.total() == protocol.ledger.total("deployed")
    report.add("Fig. 2 (four-stage mechanism)",
               "deploy/sign whisper messages", "N", f"{len(envelopes)}",
               "one (v,r,s) envelope per participant")
