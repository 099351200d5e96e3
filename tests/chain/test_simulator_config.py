"""SimulatorConfig construction: the only way to configure a simulator."""

from __future__ import annotations

import warnings

import pytest

from repro.chain import ETHER, EthereumSimulator, SimulatorConfig


def test_config_construction_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim = EthereumSimulator(
            config=SimulatorConfig(num_accounts=3, funding=7 * ETHER))
    assert len(sim.accounts) == 3
    assert sim.get_balance(sim.accounts[0]) == 7 * ETHER


def test_default_construction_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sim = EthereumSimulator()
    assert len(sim.accounts) == SimulatorConfig().num_accounts
    assert sim.auto_mine


def test_legacy_positional_arguments_raise_type_error():
    with pytest.raises(TypeError):
        EthereumSimulator(3, 5 * ETHER, False)


def test_legacy_keyword_arguments_raise_type_error():
    with pytest.raises(TypeError, match="genesis_timestamp"):
        EthereumSimulator(genesis_timestamp=1_600_000_000)


def test_mixing_config_and_legacy_arguments_is_an_error():
    with pytest.raises(TypeError, match="num_accounts"):
        EthereumSimulator(num_accounts=2,
                          config=SimulatorConfig(num_accounts=5))


def test_config_tunes_the_underlying_chain():
    sim = EthereumSimulator(config=SimulatorConfig(
        auto_mine=False, block_gas_limit=4_000_000, block_interval=5))
    assert sim.chain.block_gas_limit == 4_000_000
    assert sim.chain.block_interval == 5
    before = sim.current_timestamp
    sim.mine()
    assert sim.current_timestamp == before + 5


def test_config_is_recorded_on_the_simulator():
    config = SimulatorConfig(num_accounts=1)
    sim = EthereumSimulator(config=config)
    assert sim.config is config
