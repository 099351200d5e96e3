"""Workload inputs, output checks and the harness's own arithmetic."""

import json
import os

import pytest

from bench import probes, run, workloads
from bench.run import ROOT, Repeat


def untimed():
    return Repeat(0.0, None)


def small_fleet(seed):
    return workloads._inprocess_fleet(untimed(), seed, sessions=3,
                                      dishonest=0.34)


def test_contract_seed_is_a_function_of_the_run_seed():
    seeds = [workloads.contract_seed(seed) for seed in range(50)]
    assert seeds == [workloads.contract_seed(seed) for seed in range(50)]
    assert len(set(seeds)) == 50
    assert all(seed % 2 == 1 and seed < 2**31 for seed in seeds)


def test_same_seed_same_fingerprint_different_seed_different():
    first, again, other = small_fleet(5), small_fleet(5), small_fleet(6)
    assert first["fingerprint"] == again["fingerprint"]
    assert first["gas"] == again["gas"]
    assert first["counts"] == again["counts"]
    assert first["fingerprint"] != other["fingerprint"]
    assert first["failed"] == 0 and first["counts"]["disputes"] == 1


def test_netted_fleet_reports_its_batches():
    result = workloads._inprocess_fleet(
        untimed(), 5, sessions=4, dishonest=0.0, settlement="netted",
        batch_size=2)
    assert result["failed"] == 0
    assert result["counts"]["batches"] == 2
    assert result["counts"]["leaves"] == 4


def test_dispute_serial_resolves_every_session(monkeypatch):
    monkeypatch.setattr(workloads, "DISPUTE_SESSIONS", 2)
    monkeypatch.setattr(workloads, "DISPUTE_WARMUPS", 1)
    result = workloads.dispute_serial(untimed(), 3)
    assert result["failed"] == 0 and result["sessions"] == 2
    assert len(result["session_ms"]) == 2
    assert result["counts"]["blocks"] == result["counts"]["txs"] == 10


def test_dispute_serial_fails_everything_when_table2_moves(monkeypatch):
    monkeypatch.setattr(workloads, "DISPUTE_SESSIONS", 1)
    monkeypatch.setattr(workloads, "DISPUTE_WARMUPS", 1)
    monkeypatch.setattr(workloads, "TABLE2_DEPLOY_VERIFIED_INSTANCE", 1)
    assert workloads.dispute_serial(untimed(), 3)["failed"] == 1


def test_onchain_pipeline_matches_the_plain_python_lcg(monkeypatch):
    monkeypatch.setattr(workloads, "PIPELINE_CONTRACTS", 2)
    result = workloads.onchain_pipeline(untimed(), 9)
    assert result["failed"] == 0
    assert result["counts"] == {"blocks": 10, "txs": 10}
    monkeypatch.setattr(workloads, "pipeline_reference", lambda seed: -1)
    assert workloads.onchain_pipeline(untimed(), 9)["failed"] == 2


def test_repeat_splits_setup_from_the_timed_call():
    import time

    repeat = Repeat(time.perf_counter(), None)
    time.sleep(0.02)
    with repeat.timed():
        time.sleep(0.01)
    assert repeat.setup_s >= 0.02
    assert 0.01 <= repeat.wall_s < repeat.setup_s + 0.02
    assert repeat.cpu_s < repeat.wall_s


def test_isolated_returns_the_childs_value_and_none_on_a_crash():
    assert run.isolated(os.getpid) != os.getpid()
    assert run.isolated(lambda: {"a": [1, 2]}) == {"a": [1, 2]}
    assert run.isolated(lambda: 1 / 0) is None


def test_watchdog_kills_a_silent_repeat(monkeypatch):
    import time

    monkeypatch.setattr(run, "WATCHDOG_S", 0.2)
    started = time.perf_counter()
    assert run.isolated(time.sleep, 30) is None
    assert time.perf_counter() - started < 5


def test_spread_and_percentile():
    assert run.spread([4.0]) == {"median": 4.0, "iqr": 0.0, "n": 1}
    stats = run.spread([1.0, 2.0, 3.0, 4.0, 100.0])
    assert stats["median"] == 3.0 and stats["n"] == 5
    assert stats["iqr"] == pytest.approx(50.5)
    assert run.percentile(list(range(1, 101)), 90) == pytest.approx(90.9)


def _repeat(wall_s, session_ms=()):
    return {"sessions": 4, "wall_s": wall_s, "cpu_s": wall_s / 2,
            "gas": 400, "setup_s": 0.5, "peak_rss_mb": 30.0,
            "session_ms": list(session_ms)}


def test_end_to_end_uses_medians_not_bests():
    stats = run.end_to_end([_repeat(1.0), _repeat(2.0), _repeat(4.0)])
    assert stats["sessions_per_s"]["median"] == 2.0
    assert stats["session_ms_p50"]["median"] == 2000.0
    assert stats["gas_per_session"] == {"median": 100.0, "iqr": 0.0, "n": 3}
    serial = run.end_to_end([_repeat(1.0, [10, 30]), _repeat(1.0, [20, 90])])
    assert serial["session_ms_p50"]["median"] == 25.0
    assert serial["session_ms_p50"]["n"] == 4


def test_metric_names_match_benchmark_json(tmp_path):
    spec = run.load_spec()
    assert set(run.end_to_end([_repeat(1.0), _repeat(2.0)])) == \
        set(spec["end_to_end"])
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0}
    counters = dict.fromkeys(
        ("keccak_bytes", "keccak_rehashed_bytes", "keccak_hits",
         "keccak_misses", "recover_hits", "recover_misses",
         "analysis_hits", "analysis_misses", "jit_compiles", "jit_runs"), 0)
    traced = {**_repeat(1.0), "counts": {"blocks": 0, "txs": 0},
              "trace": {"run": {"bench.run": empty}, "repeat": {},
                        "counters": counters}}
    values = run.per_layer([_repeat(1.0)], [traced],
                           probes.run_probes(tmp_path / "store"))
    assert set(values) == set(spec["per_layer"])
    assert values["obs.trace_coverage"] == 0.0


def test_benchmark_json_names_the_five_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    assert names == ["fleet_direct", "fleet_netted", "dispute_serial",
                     "onchain_pipeline", "net_fleet"]
    assert all(callable(getattr(workloads, name)) for name in names)
    assert spec["paths"] == ["bench"]
