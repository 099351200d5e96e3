"""Unified observability: tracing, metrics and EVM gas profiling.

One :class:`Telemetry` object bundles the three instruments the rest
of the library reports into:

* a span :class:`~repro.obs.trace.Tracer` (wall time + inclusive gas,
  parent/child propagation, pluggable exporters);
* a :class:`~repro.obs.metrics.MetricsRegistry` holding every counter,
  gauge and histogram named in :mod:`repro.obs.names`;
* an :class:`~repro.obs.gasprof.EvmGasProfiler` fed by the transaction
  processor through the EVM's tracer seam.

Telemetry is **off by default** and activated for a bounded scope::

    from repro import obs
    from repro.obs.exporters import JsonlExporter

    with obs.telemetry(JsonlExporter("out.jsonl")) as telemetry:
        run_scenario()
    # spans streamed to out.jsonl; metrics snapshot appended on close

Instrumentation sites call the module-level helpers (:func:`span`,
:func:`inc`, :func:`observe`, ...) which no-op when nothing is active;
the disabled cost is one ``is None`` check per site (quantified in
``benchmarks/bench_observability_overhead.py``).  The tracer and
registry are synchronous and single-threaded, like the simulator they
observe.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.exceptions import ReproError
from repro.obs import names
from repro.obs.gasprof import EvmGasProfiler, TxGasCollector
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.trace import NOOP_SPAN, NoopSpan, Span, Tracer

__all__ = [
    "Counter",
    "EvmGasProfiler",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "NoopSpan",
    "ObsError",
    "Span",
    "Telemetry",
    "Tracer",
    "TxGasCollector",
    "active",
    "add_gas",
    "begin_transaction",
    "enabled",
    "end_transaction",
    "inc",
    "names",
    "observe",
    "set_gauge",
    "span",
    "telemetry",
]


class ObsError(ReproError, RuntimeError):
    """Raised for telemetry lifecycle misuse (double activation, ...)."""


#: Fixed histogram bucket boundaries, part of the telemetry contract.
BLOCK_TX_BUCKETS = (1, 2, 4, 8, 16, 32, 64)
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)
BLOCK_GAS_BUCKETS = (50_000, 100_000, 250_000, 500_000, 1_000_000,
                     2_000_000, 4_000_000, 8_000_000)
WINDOW_MARGIN_BUCKETS = (60, 300, 900, 1_800, 3_600, 7_200, 14_400)
NET_RTT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                   0.05, 0.1, 0.25, 0.5, 1.0, 2.5)


def _declare_instruments(registry: MetricsRegistry) -> None:
    """Pre-declare every contract metric so lookups never miss."""
    registry.counter(names.METRIC_CHAIN_TXS, help="mined transactions")
    registry.counter(names.METRIC_CHAIN_BLOCKS, help="mined blocks")
    registry.histogram(names.METRIC_CHAIN_BLOCK_TXS,
                       buckets=BLOCK_TX_BUCKETS,
                       help="transactions per mined block")
    registry.histogram(names.METRIC_CHAIN_BLOCK_GAS,
                       buckets=BLOCK_GAS_BUCKETS,
                       help="gas used per mined block")
    registry.counter(names.METRIC_CHAIN_FN_GAS,
                     help="receipt gas per named contract function")
    registry.gauge(names.METRIC_MEMPOOL_DEPTH,
                   help="pending transactions after last add/pop")
    registry.histogram(names.METRIC_MEMPOOL_BATCH_TXS,
                       buckets=BLOCK_TX_BUCKETS,
                       help="transactions taken per pop_batch")
    registry.gauge(names.METRIC_CRYPTO_GLV_SPLITS,
                   help="GLV scalar decompositions (process-wide)")
    registry.counter(names.METRIC_PROTOCOL_STAGE_GAS,
                     help="GasLedger records per protocol stage")
    registry.counter(names.METRIC_OFFCHAIN_GAS,
                     help="gas-equivalents burned privately off-chain")
    registry.counter(names.METRIC_CHALLENGE_LATE_DISPUTES,
                     help="disputes rejected after the deadline")
    registry.histogram(names.METRIC_CHALLENGE_DEADLINE_MARGIN,
                       buckets=WINDOW_MARGIN_BUCKETS,
                       help="window seconds left at dispute admission")
    registry.counter(names.METRIC_ADVERSARY_SCENARIOS,
                     help="adversary scenarios executed")
    registry.counter(names.METRIC_ADVERSARY_REJECTED,
                     help="adversarial actions rejected")
    registry.counter(names.METRIC_ADVERSARY_FORFEITS,
                     help="deposits forfeited in adversary scenarios")
    registry.counter(names.METRIC_SETTLEMENT_BATCHES,
                     help="netted batches committed on-chain")
    registry.counter(names.METRIC_SETTLEMENT_BATCHED_SESSIONS,
                     help="sessions settled through netted batches")
    registry.histogram(names.METRIC_SETTLEMENT_BATCH_SIZE,
                       buckets=BATCH_SIZE_BUCKETS,
                       help="sessions per committed batch")
    registry.counter(names.METRIC_SETTLEMENT_BATCH_GAS,
                     help="batch-level gas (deploy+commit+finalize)")
    registry.counter(names.METRIC_SETTLEMENT_OPENINGS,
                     help="contested leaves opened on aggregators")
    registry.counter(names.METRIC_STORAGE_WAL_COMMITS,
                     help="WAL transactions durably committed")
    registry.counter(names.METRIC_STORAGE_WAL_RECORDS,
                     help="data records in committed WAL transactions")
    registry.counter(names.METRIC_STORAGE_COMPACTIONS,
                     help="snapshot compactions")
    registry.counter(names.METRIC_STORAGE_ACCOUNTS_EVICTED,
                     help="clean accounts evicted from the hot LRU")
    registry.counter(names.METRIC_STORAGE_ACCOUNTS_FAULTED,
                     help="accounts faulted in from the durable store")
    registry.counter(names.METRIC_STORAGE_SESSIONS_REPLAYED,
                     help="mid-flight sessions replayed on --resume")
    registry.counter(names.METRIC_NET_REQUESTS,
                     help="wire requests completed by clients")
    registry.counter(names.METRIC_NET_RETRIES,
                     help="retransmissions after timeout/disconnect")
    registry.histogram(names.METRIC_NET_RTT,
                       buckets=NET_RTT_BUCKETS,
                       help="round-trip seconds per wire request")
    registry.counter(names.METRIC_NET_COMMANDS,
                     help="commands executed by channel servers")
    registry.counter(names.METRIC_NET_REDELIVERIES,
                     help="duplicates answered from the dedup window")
    registry.counter(names.METRIC_ENGINE_SESSIONS,
                     help="sessions driven to completion")
    registry.counter(names.METRIC_ENGINE_DISPUTES,
                     help="sessions settled through Dispute/Resolve")
    registry.counter(names.METRIC_ENGINE_BLOCKS,
                     help="blocks the engine scheduled")
    registry.counter(names.METRIC_ENGINE_TXS,
                     help="transactions the engine mined")
    registry.counter(names.METRIC_ENGINE_ROUNDS,
                     help="queue-mine-resume scheduler rounds")
    registry.gauge(names.METRIC_ENGINE_WALL_SECONDS,
                   help="wall-clock seconds of the last engine run")
    registry.gauge(names.METRIC_EVM_CACHE_HITS,
                   help="cumulative hits per EVM-side memo cache")
    registry.gauge(names.METRIC_EVM_CACHE_MISSES,
                   help="cumulative misses per EVM-side memo cache")
    registry.gauge(names.METRIC_EVM_CACHE_SIZE,
                   help="current entries per EVM-side memo cache")
    registry.gauge(names.METRIC_EVM_JIT_PROGRAMS,
                   help="bytecodes compiled by the EVM JIT")
    registry.gauge(names.METRIC_EVM_JIT_BLOCKS,
                   help="basic blocks compiled by the EVM JIT")
    registry.gauge(names.METRIC_EVM_JIT_FAILURES,
                   help="bytecodes the EVM JIT fell back on")
    registry.gauge(names.METRIC_EVM_JIT_RUNS,
                   help="untraced EVM frame executions by run mode")


class Telemetry:
    """One activatable bundle of tracer + registry + EVM profiler.

    ``exporters`` receive spans as they finish and the final metrics
    snapshot on :meth:`close`.  ``profile_evm=False`` skips opcode
    profiling (the hot path) while keeping spans and metrics.
    """

    def __init__(self, *exporters: Any, profile_evm: bool = True) -> None:
        self.exporters = tuple(exporters)
        self.metrics = MetricsRegistry()
        _declare_instruments(self.metrics)
        self.tracer = Tracer(exporters=self.exporters)
        self.profiler: Optional[EvmGasProfiler] = (
            EvmGasProfiler(self.metrics) if profile_evm else None)
        self._closed = False

    def close(self) -> None:
        """Send the final metrics snapshot and close every exporter."""
        if self._closed:
            return
        self._closed = True
        _publish_cache_stats(self.metrics)
        snapshot = self.metrics.snapshot()
        for exporter in self.exporters:
            on_metrics = getattr(exporter, "on_metrics", None)
            if on_metrics is not None:
                on_metrics(snapshot)
            exporter.close()


def _publish_cache_stats(registry: MetricsRegistry) -> None:
    """Refresh the ``evm.cache.*`` gauges from the live caches."""
    from repro.crypto.keccak import keccak_cache_info
    from repro.crypto.keys import recover_cache_info
    from repro.crypto.secp256k1 import glv_split_count
    from repro.evm.analysis import analysis_cache_info
    from repro.evm.jit import cache_info as jit_cache_info

    lru_sources = {
        "analysis": analysis_cache_info(),
        "ecrecover": recover_cache_info(),
        "keccak": keccak_cache_info(),
    }
    registry.get(names.METRIC_CRYPTO_GLV_SPLITS).set(glv_split_count())
    hits = registry.get(names.METRIC_EVM_CACHE_HITS)
    misses = registry.get(names.METRIC_EVM_CACHE_MISSES)
    size = registry.get(names.METRIC_EVM_CACHE_SIZE)
    for cache, info in lru_sources.items():
        hits.set(info.hits, cache=cache)
        misses.set(info.misses, cache=cache)
        size.set(info.currsize, cache=cache)
    jit = jit_cache_info()
    registry.get(names.METRIC_EVM_JIT_PROGRAMS).set(jit["programs"])
    registry.get(names.METRIC_EVM_JIT_BLOCKS).set(jit["blocks"])
    registry.get(names.METRIC_EVM_JIT_FAILURES).set(jit["failures"])
    runs = registry.get(names.METRIC_EVM_JIT_RUNS)
    runs.set(jit["compiled_runs"], mode="compiled")
    runs.set(jit["interpreted_runs"], mode="interpreted")
    runs.set(jit["bailouts"], mode="bailout")


def publish_cache_stats() -> None:
    """Refresh the active telemetry's ``evm.cache.*`` gauges.

    No-op while telemetry is inactive.  :meth:`Telemetry.close` calls
    this automatically, so exported final snapshots always carry the
    cache statistics; call it mid-run for fresher readings.
    """
    if _ACTIVE is not None:
        _publish_cache_stats(_ACTIVE.metrics)


_ACTIVE: Optional[Telemetry] = None


def active() -> Optional[Telemetry]:
    """The currently activated :class:`Telemetry`, if any."""
    return _ACTIVE


def enabled() -> bool:
    """True while a :class:`Telemetry` is activated."""
    return _ACTIVE is not None


def activate(instance: Telemetry) -> Telemetry:
    """Install ``instance`` as the process-wide telemetry sink."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ObsError("telemetry is already active; deactivate() first")
    _ACTIVE = instance
    return instance


def deactivate() -> None:
    """Remove the active telemetry (no-op when none is active)."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def telemetry(*exporters: Any,
              profile_evm: bool = True) -> Iterator[Telemetry]:
    """Activate a fresh :class:`Telemetry` for the ``with`` body."""
    instance = activate(Telemetry(*exporters, profile_evm=profile_evm))
    try:
        yield instance
    finally:
        deactivate()
        instance.close()


# ---------------------------------------------------------------------------
# Hot-path helpers: all no-ops while telemetry is inactive
# ---------------------------------------------------------------------------

def span(name: str, **labels: Any):
    """Open a span on the active tracer (no-op context when off)."""
    if _ACTIVE is None:
        return NOOP_SPAN
    return _ACTIVE.tracer.span(name, **labels)


def add_gas(amount: int) -> None:
    """Attribute gas inclusively to every open span."""
    if _ACTIVE is not None:
        _ACTIVE.tracer.add_gas(amount)


def inc(name: str, amount: int | float = 1, **labels: Any) -> None:
    """Increment a contract counter by name."""
    if _ACTIVE is None:
        return
    instrument = _ACTIVE.metrics.get(name)
    if instrument is None:
        raise MetricsError(f"metric {name!r} is not declared")
    instrument.inc(amount, **labels)


def observe(name: str, value: int | float, **labels: Any) -> None:
    """Record a contract histogram observation by name."""
    if _ACTIVE is None:
        return
    instrument = _ACTIVE.metrics.get(name)
    if instrument is None:
        raise MetricsError(f"metric {name!r} is not declared")
    instrument.observe(value, **labels)


def set_gauge(name: str, value: int | float, **labels: Any) -> None:
    """Set a contract gauge by name."""
    if _ACTIVE is None:
        return
    instrument = _ACTIVE.metrics.get(name)
    if instrument is None:
        raise MetricsError(f"metric {name!r} is not declared")
    instrument.set(value, **labels)


def begin_transaction() -> Optional[TxGasCollector]:
    """A per-transaction EVM gas collector, or None when off."""
    if _ACTIVE is None or _ACTIVE.profiler is None:
        return None
    return _ACTIVE.profiler.begin_transaction()


def end_transaction(collector: TxGasCollector, *, execution_gas: int,
                    intrinsic: int, refund: int, gas_used: int) -> None:
    """Settle a collector from :func:`begin_transaction`."""
    if _ACTIVE is not None and _ACTIVE.profiler is not None:
        _ACTIVE.profiler.finish_transaction(
            collector, execution_gas=execution_gas, intrinsic=intrinsic,
            refund=refund, gas_used=gas_used)
