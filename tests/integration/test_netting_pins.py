"""Netted settlement's on-chain gas, pinned to the gas unit.

The same honest betting fleet (8 sessions) settles once per session
under ``DirectSettlement`` and once as a single Merkle-netted batch of
8. Direct mode pays ``submitResult`` + ``finalizeResult`` (both booked
under the submit/challenge stage) for every session; netted mode pays
one aggregator deploy + ``commitBatch`` + ``finalizeBatch`` for the
whole batch. Deploys and deposits are common to both and left out.
Both totals are literals, so an optimisation that moves settlement gas
fails here. The ≥8x floor at batch 100 is checked by
``benchmarks/bench_netting_amortization.py``.
"""

from repro.chain import EthereumSimulator, SimulatorConfig
from repro.core import SessionEngine, Stage, spawn_fleet

SESSIONS = 8
DIRECT_SETTLE_GAS_PER_SESSION = 159_338
NETTED_BATCH_GAS = 614_775  # 76,846.875 per session, 2.07x cheaper


def _settle(settlement: str) -> tuple[SessionEngine, list]:
    sim = EthereumSimulator(config=SimulatorConfig(
        num_accounts=2, auto_mine=False, settlement=settlement,
        batch_size=SESSIONS if settlement == "netted" else 1))
    drivers = spawn_fleet(sim, SESSIONS, app="betting")
    engine = SessionEngine(sim, drivers, mining="batch")
    engine.run()
    assert all(driver.settled for driver in drivers)
    return engine, drivers


def test_direct_settlement_gas_is_pinned():
    __, drivers = _settle("direct")
    for driver in drivers:
        assert driver.protocol.ledger.by_stage()[Stage.PROPOSED.value] \
            == DIRECT_SETTLE_GAS_PER_SESSION


def test_netted_settlement_gas_is_pinned():
    engine, __ = _settle("netted")
    batcher = engine.batcher
    assert len(batcher.batches) == 1
    assert batcher.total_gas() == NETTED_BATCH_GAS
    assert batcher.amortized_gas_per_session() == NETTED_BATCH_GAS / SESSIONS
