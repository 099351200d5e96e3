"""Netted settlement amortisation at full batch size.

The same honest betting fleet of 100 sessions settles twice: once per
session under ``DirectSettlement`` (``submitResult`` +
``finalizeResult`` on chain for every session, both booked under the
submit/challenge stage) and once as one Merkle-netted batch of 100
(one aggregator deploy + ``commitBatch`` + ``finalizeBatch``). Deploys
and deposits are common to both and left out. Netting must cut the
on-chain settlement gas per session by at least
``NETTING_MIN_AMORTIZATION``; a smaller batch cannot amortise the
aggregator deploy that far, so the batch size stays at 100. The
8-session gas figures are pinned in
``tests/integration/test_netting_pins.py``.
"""

from __future__ import annotations

from repro.chain import EthereumSimulator, SimulatorConfig
from repro.core import SessionEngine, Stage, spawn_fleet

SESSIONS = 100
NETTING_MIN_AMORTIZATION = 8.0


def _settle(settlement: str):
    sim = EthereumSimulator(config=SimulatorConfig(
        num_accounts=2, auto_mine=False, settlement=settlement,
        batch_size=SESSIONS if settlement == "netted" else 1))
    drivers = spawn_fleet(sim, SESSIONS, app="betting")
    engine = SessionEngine(sim, drivers, mining="batch")
    engine.run()
    assert all(driver.settled for driver in drivers)
    return engine, drivers


def test_netting_amortizes_settlement_gas(timed, report):
    __, direct_drivers = _settle("direct")
    netted_engine, __ = timed(_settle, "netted")

    direct_per_session = sum(
        driver.protocol.ledger.by_stage()[Stage.PROPOSED.value]
        for driver in direct_drivers) / SESSIONS
    netted_per_session = netted_engine.batcher.amortized_gas_per_session()
    amortization = direct_per_session / netted_per_session

    artefact = "Netted settlement (batch of 100)"
    report.add(artefact, "direct settle gas per session", "n/a",
               f"{direct_per_session:,.0f}",
               "submitResult + finalizeResult per session")
    report.add(artefact, "netted settle gas per session", "n/a",
               f"{netted_per_session:,.0f}",
               "aggregator deploy + commit + finalize, shared")
    report.add(artefact, "amortization [x]",
               f">={NETTING_MIN_AMORTIZATION:.0f}",
               f"{amortization:.1f}", "direct / netted, per session")
    assert amortization >= NETTING_MIN_AMORTIZATION
