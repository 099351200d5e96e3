"""Table II pinned to the gas unit.

Table II is a fixed point of this reproduction: run-mode changes and
optimisations may move time, never gas.  Both rows of the betting
dispute (seed 42, challenge period 0) are pinned as literals — the
``rounds=0`` pair published in EXPERIMENTS.md and the ``rounds=1``
pair the benchmark's ``dispute_serial`` workload checks.
"""

import pytest

from repro.apps.betting import deploy_betting, make_betting_protocol
from repro.chain import EthereumSimulator
from repro.core import Participant, Stage


@pytest.mark.parametrize("rounds, deploy_gas, resolve_gas", [
    (0, 332_930, 42_251),
    (1, 347_930, 57_560),
])
def test_table2_dispute_gas_is_pinned(rounds, deploy_gas, resolve_gas):
    sim = EthereumSimulator()
    alice = Participant(account=sim.accounts[0], name="alice")
    bob = Participant(account=sim.accounts[1], name="bob")
    protocol = make_betting_protocol(sim, alice, bob, seed=42,
                                     rounds=rounds, challenge_period=0)
    deploy_betting(protocol, alice)
    protocol.collect_signatures()
    plan = protocol.betting_plan
    protocol.call_onchain(alice, "deposit", value=plan["stake"])
    protocol.call_onchain(bob, "deposit", value=plan["stake"])
    sim.advance_time_to(plan["timeline"].t3 + 1)
    outcome = protocol.dispute(bob).value
    assert protocol.stage is Stage.RESOLVED
    assert outcome.deploy_receipt.gas_used == deploy_gas
    assert outcome.resolve_receipt.gas_used == resolve_gas
