"""End-to-end networked fleets: bit-identical to in-process runs.

The acceptance gate of the networked layer: a fleet driven through
:class:`RemoteSimulator` + :class:`RemoteWhisperTransport` against a
:class:`NodeService` — with a :class:`ParticipantNode` signing one
role remotely, and even with the ``LOSSY`` fault schedule corrupting
every delivery — must produce the same fleet fingerprint (per-session
gas ledgers and terminal stages) as the plain in-process run.
"""

from __future__ import annotations

import threading

import pytest

from repro.chain import EthereumSimulator, SimulatorConfig
from repro.core import SessionEngine, fleet_fingerprint, spawn_fleet
from repro.crypto.keys import PrivateKey
from repro.net import (
    ChannelClient,
    ChannelServer,
    FaultPolicy,
    NodeService,
    ParticipantNode,
    RemoteSimulator,
    RemoteWhisperTransport,
)
from repro.net.faults import LOSSY

SESSIONS = 3
APP = "betting"


def _config(**overrides) -> SimulatorConfig:
    return SimulatorConfig(num_accounts=2, auto_mine=False,
                           **overrides)


def _inproc_fingerprint(settlement: str = "direct") -> str:
    sim = EthereumSimulator(config=_config(settlement=settlement))
    drivers = spawn_fleet(sim, SESSIONS, app=APP)
    SessionEngine(sim, drivers).run()
    return fleet_fingerprint(drivers)


def _remote_fingerprint(faults: FaultPolicy | None = None,
                        remote_roles: tuple[str, ...] = (),
                        settlement: str = "direct",
                        timeout: float = 2.0) -> str:
    service = NodeService(
        simulator=EthereumSimulator(config=_config()))
    handle = ChannelServer(service.dispatch).start_in_thread()
    client = ChannelClient("127.0.0.1", handle.port,
                           PrivateKey.from_seed("engine-client"),
                           timeout=timeout, faults=faults)
    participant = None
    participant_error: list[BaseException] = []
    try:
        if remote_roles:
            signer_client = ChannelClient(
                "127.0.0.1", handle.port,
                PrivateKey.from_seed("participant-client"))
            participant = ParticipantNode(
                signer_client, app=APP, sessions=SESSIONS,
                roles=list(remote_roles))

            def _serve() -> None:
                try:
                    participant.serve(SESSIONS * len(remote_roles))
                except BaseException as exc:  # noqa: BLE001
                    participant_error.append(exc)

            signer = threading.Thread(target=_serve, daemon=True)
            signer.start()
        sim = RemoteSimulator(
            client, config=_config(settlement=settlement))
        drivers = spawn_fleet(sim, SESSIONS, app=APP,
                              remote_roles=remote_roles)
        bus = RemoteWhisperTransport(client)
        for driver in drivers:
            driver.protocol.bus = bus
        SessionEngine(sim, drivers).run()
        if remote_roles:
            signer.join(timeout=30.0)
            if participant_error:
                raise participant_error[0]
            assert participant.signed == SESSIONS * len(remote_roles)
        return fleet_fingerprint(drivers)
    finally:
        if participant is not None:
            signer_client.close()
        client.close()
        handle.stop()


def test_remote_fleet_is_bit_identical_to_inproc():
    assert _remote_fingerprint() == _inproc_fingerprint()


def test_remote_fleet_with_remote_signer_is_bit_identical():
    assert (_remote_fingerprint(remote_roles=("bob",))
            == _inproc_fingerprint())


def test_lossy_transport_leaves_fleet_bit_identical():
    """The fault-injection gate: dropped, duplicated, delayed and
    reordered deliveries may only cost latency — outcomes and gas
    ledgers must not move by a single unit."""
    baseline = _inproc_fingerprint()
    assert _remote_fingerprint(
        faults=FaultPolicy(**LOSSY), timeout=0.25) == baseline


def test_netted_settlement_crosses_the_wire_identically():
    settlement = "netted"
    sim = EthereumSimulator(
        config=_config(settlement=settlement, batch_size=SESSIONS))
    drivers = spawn_fleet(sim, SESSIONS, app=APP)
    SessionEngine(sim, drivers).run()
    baseline = fleet_fingerprint(drivers)

    service = NodeService(
        simulator=EthereumSimulator(config=_config()))
    handle = ChannelServer(service.dispatch).start_in_thread()
    client = ChannelClient("127.0.0.1", handle.port,
                           PrivateKey.from_seed("engine-client"))
    try:
        rsim = RemoteSimulator(
            client, config=_config(settlement=settlement,
                                   batch_size=SESSIONS))
        remote_drivers = spawn_fleet(rsim, SESSIONS, app=APP)
        bus = RemoteWhisperTransport(client)
        for driver in remote_drivers:
            driver.protocol.bus = bus
        SessionEngine(rsim, remote_drivers).run()
        assert fleet_fingerprint(remote_drivers) == baseline
    finally:
        client.close()
        handle.stop()


def test_store_is_rejected_over_the_net_transport(tmp_path):
    from repro.chain.blockchain import ChainError

    service = NodeService(
        simulator=EthereumSimulator(config=_config()))
    handle = ChannelServer(service.dispatch).start_in_thread()
    client = ChannelClient("127.0.0.1", handle.port,
                           PrivateKey.from_seed("engine-client"))
    try:
        rsim = RemoteSimulator(client, config=_config())
        with pytest.raises(ChainError, match="node process"):
            rsim.chain.attach_store(object())
    finally:
        client.close()
        handle.stop()
