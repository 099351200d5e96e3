"""The bytecode→Python JIT: blocks, caching, warm-up, gas identity.

The differential property suite (``tests/property/test_jit_differential``)
fuzzes compiled-vs-interpreted equivalence; this file pins the
mechanics — basic-block decomposition, the warm-up threshold, the
content-keyed program cache, exact out-of-gas faulting and the
interpreter fallback paths.
"""

import pytest

from repro.evm import jit
from repro.evm.analysis import analyze_code, clear_analysis_cache
from repro.evm.assembler import assemble
from repro.evm.vm import Message
from tests.evm.vm_harness import CALLER, CONTRACT, make_env

_LOOP = assemble("""
PUSH2 0x0040
JUMPDEST
PUSH1 0x01
SWAP1
SUB
DUP1
PUSH2 0x0003
JUMPI
STOP
""")


@pytest.fixture(autouse=True)
def _jit_everything():
    """Force compilation on the first execution; restore afterwards."""
    saved_enabled, saved_warmup = jit.enabled(), jit.warmup_threshold()
    jit.configure(enabled=True, warmup=0)
    jit.reset_stats()
    clear_analysis_cache()  # fresh exec counts + no cached programs
    yield
    jit.configure(enabled=saved_enabled, warmup=saved_warmup)


def _run(code: bytes, gas: int = 1_000_000, jit_flag=None, data=b""):
    state, evm = make_env()
    evm.jit = jit_flag
    state.set_code(CONTRACT, code)
    return evm.execute(Message(sender=CALLER, to=CONTRACT, value=0,
                               data=data, gas=gas, origin=CALLER))


# -- basic blocks ----------------------------------------------------------


def test_split_blocks_boundaries():
    analysis = analyze_code(_LOOP)
    blocks = jit.split_blocks(_LOOP, analysis)
    starts = [start for start, __ in blocks]
    # Entry block at 0, loop body at the JUMPDEST (pc 3), and the
    # fall-through STOP after the block-ending JUMPI.
    assert starts == [0, 3, 13]
    # The entry block holds exactly the leading PUSH2.
    entry_ops = [op for __, op, __ in blocks[0][1]]
    assert len(entry_ops) == 1


def test_push_immediates_never_become_instructions():
    # PUSH2 0x5b00 carries a JUMPDEST byte inside its immediate.
    code = assemble("PUSH2 0x5b00\nPOP\nSTOP")
    analysis = analyze_code(code)
    blocks = jit.split_blocks(code, analysis)
    assert [start for start, __ in blocks] == [0]
    pcs = [pc for pc, __, __ in blocks[0][1]]
    assert 1 not in pcs and 2 not in pcs


# -- warm-up and caching ---------------------------------------------------


def test_warmup_threshold_defers_compilation():
    jit.configure(warmup=2)
    code = assemble("PUSH1 0x2a\nPUSH1 0x00\nMSTORE\n"
                    "PUSH1 0x20\nPUSH1 0x00\nRETURN")
    for expected_compiled in (False, False, True):
        result = _run(code)
        assert result.success
        program = analyze_code(code).jit_program
        assert (program is not None
                and program is not jit._FAILED) is expected_compiled


def test_program_cached_on_content_keyed_analysis():
    result = _run(_LOOP)
    assert result.success
    first = analyze_code(_LOOP).jit_program
    assert isinstance(first, jit.CompiledProgram)
    _run(_LOOP)
    assert analyze_code(_LOOP).jit_program is first
    assert jit.STATS.programs == 1
    assert jit.STATS.compiled_runs == 2


def test_stats_and_cache_info_shape():
    _run(_LOOP)
    info = jit.cache_info()
    assert info["programs"] == 1
    assert info["blocks"] >= 2
    assert info["compiled_runs"] == 1
    assert info["failures"] == 0


def test_configure_rejects_negative_warmup():
    with pytest.raises(ValueError):
        jit.configure(warmup=-1)


# -- execution equivalence pins -------------------------------------------


def test_loop_gas_identical_to_interpreter():
    compiled = _run(_LOOP, jit_flag=True)
    interpreted = _run(_LOOP, jit_flag=False)
    assert compiled.success and interpreted.success
    assert compiled.gas_used == interpreted.gas_used
    assert compiled.return_data == interpreted.return_data


def test_out_of_gas_faults_like_interpreter():
    # Walk the gas budget down until the loop cannot finish; at every
    # budget both engines must agree on the error and the gas burned.
    full = _run(_LOOP, jit_flag=False).gas_used
    for budget in (full - 1, full // 2, 10, 3, 2, 1):
        compiled = _run(_LOOP, gas=budget, jit_flag=True)
        interpreted = _run(_LOOP, gas=budget, jit_flag=False)
        assert compiled.success is interpreted.success is False
        assert compiled.error == interpreted.error
        assert compiled.gas_used == interpreted.gas_used == budget


def test_stack_fault_messages_identical():
    cases = (
        "POP\nSTOP",                       # underflow
        "DUP3\nSTOP",                      # DUPn beyond depth
        "PUSH1 0x01\nSWAP2\nSTOP",         # SWAPn beyond depth
        "PUSH1 0x07\nJUMP",                # invalid jump target
    )
    for source in cases:
        code = assemble(source)
        compiled = _run(code, jit_flag=True)
        interpreted = _run(code, jit_flag=False)
        assert compiled.success is interpreted.success is False
        assert compiled.error == interpreted.error
        assert compiled.gas_used == interpreted.gas_used


def test_invalid_opcode_matches_interpreter():
    code = bytes([0x60, 0x01, 0xEF])  # PUSH1 1; undefined 0xEF
    compiled = _run(code, jit_flag=True)
    interpreted = _run(code, jit_flag=False)
    assert compiled.error == interpreted.error
    assert compiled.gas_used == interpreted.gas_used


# -- fallback paths --------------------------------------------------------


def test_disabled_jit_interprets():
    jit.configure(enabled=False)
    result = _run(_LOOP)
    assert result.success
    assert analyze_code(_LOOP).jit_program is None
    # The disabled path routes straight to the interpreter without
    # consulting the transpiler at all.
    assert jit.STATS.compiled_runs == 0
    assert jit.STATS.programs == 0


def test_per_evm_override_beats_module_default():
    jit.configure(enabled=False)
    result = _run(_LOOP, jit_flag=True)
    assert result.success
    assert jit.STATS.compiled_runs == 1


def test_traced_execution_never_uses_jit():
    from repro.evm.tracer import GasProfiler

    state, evm = make_env()
    evm.tracer = GasProfiler()
    state.set_code(CONTRACT, _LOOP)
    result = evm.execute(Message(sender=CALLER, to=CONTRACT, value=0,
                                 data=b"", gas=1_000_000, origin=CALLER))
    assert result.success
    assert jit.STATS.compiled_runs == 0


def test_failed_compile_is_cached_and_interpreted():
    code = assemble("PUSH1 0x2a\nPUSH1 0x00\nSSTORE\nSTOP")
    analysis = analyze_code(code)
    jit.STATS.failures = 0
    analysis.jit_program = jit._FAILED  # simulate a prior failure
    result = _run(code)
    assert result.success
    assert analysis.jit_program is jit._FAILED
    assert jit.STATS.compiled_runs == 0


def test_bridged_storage_ops_stay_exact():
    code = assemble("""
    PUSH1 0x2a
    PUSH1 0x05
    SSTORE
    PUSH1 0x05
    SLOAD
    PUSH1 0x00
    MSTORE
    PUSH1 0x20
    PUSH1 0x00
    RETURN
    """)
    compiled = _run(code, jit_flag=True)
    interpreted = _run(code, jit_flag=False)
    assert compiled.success and interpreted.success
    assert compiled.return_data == interpreted.return_data
    assert compiled.gas_used == interpreted.gas_used
    assert int.from_bytes(compiled.return_data, "big") == 0x2A
