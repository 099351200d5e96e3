#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name with its unit.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --seed N              # every workload
    python3 bench/run.py --check-repeat        # two sets, diff vs bounds

Workloads, metric names, units and bounds are read from
``BENCHMARK.json``; see ``bench/README.md`` for what each one means.

Every repeat runs in a freshly forked child that imports ``repro``
itself, so each repeat starts with the process-wide caches (JIT
programs, code analyses, keccak and ecrecover memos) as a new process
would have them.  Repeats inside one process are not independent: the
JIT's warm-up counter spans them, which makes the third in-process
repeat of a fleet compile every contract (3x slower) and every later
one compile nothing — neither is what a user's fleet pays.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import select
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
if not __package__:
    # Run as a script, sys.path[0] is bench/.  Swap in the repo root so
    # ``bench`` imports as a package and bench/trace.py cannot shadow
    # the standard library's ``trace`` module.
    sys.path[0] = str(ROOT)
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

from bench.trace import Tracer, summarise  # noqa: E402

#: A repeat that has not answered after this long is killed, with
#: every process it started, and counted as failed sessions.
WATCHDOG_S = 60
MIN_REPEATS = 3
MIN_TRACED_PAIRS = 2

#: Per-repeat counters that repeat exactly for a fixed seed (request
#: and message counts on ``net_fleet`` depend on process timing).
EXACT_COUNTS = ("blocks", "txs", "disputes", "rounds", "batches", "leaves")


# -- the child side: one repeat ------------------------------------------


class Repeat:
    """The clock of one repeat; set-up runs until :meth:`timed`."""

    def __init__(self, started: float, tracer: Tracer | None) -> None:
        self.started = started
        self.tracer = tracer
        self.setup_s = self.wall_s = self.cpu_s = 0.0
        self.counters: dict = {}
        self._setup_span = tracer.open("bench.setup") if tracer else None

    def tag(self, value: int) -> None:
        """Label the spans that follow with a session id."""
        if self.tracer is not None:
            self.tracer.tag = value

    @contextmanager
    def timed(self):
        """The timed call: wall and CPU of the body, nothing else."""
        tracer = self.tracer
        if tracer is not None:
            tracer.close(self._setup_span)
            before = tracer.counters()
        self.setup_s = time.perf_counter() - self.started
        run_span = tracer.open("bench.run") if tracer else None
        cpu = time.process_time()
        wall = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s = time.perf_counter() - wall
            self.cpu_s = time.process_time() - cpu
            if tracer is not None:
                tracer.close(run_span)
                after = tracer.counters()
                self.counters = {key: after[key] - before[key]
                                 for key in after}


def run_repeat(name: str, seed: int, number: int, traced: bool) -> dict:
    """One repeat of one workload, in this (child) process."""
    started = time.perf_counter()
    gc.collect()
    from bench import workloads

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
        tracer.tag = number
    repeat = Repeat(started, tracer)
    result = getattr(workloads, name)(repeat, seed)
    net = result.get("net", {})
    result.update(
        wall_s=repeat.wall_s, setup_s=repeat.setup_s,
        cpu_s=repeat.cpu_s + net.get("node_cpu_s", 0.0)
        + net.get("participant_cpu_s", 0.0),
        # This process plus the largest child it waited for.
        peak_rss_mb=(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024)
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = {
            "run": summarise(tracer.spans, root="bench.run"),
            "repeat": summarise(tracer.spans),
            "counters": repeat.counters,
        }
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace_{name}.jsonl")
    return result


def run_probes() -> dict:
    """The fixed-input layer probes, in this (child) process."""
    from bench import probes

    OUT.mkdir(exist_ok=True)
    return probes.run_probes(OUT / "probe_store")


# -- the parent side: isolation, aggregation, report ---------------------


def isolated(function, *args):
    """``function(*args)`` in a forked child; None if it died or hung.

    The child leads its own process group, so the watchdog (and the
    clean-up after a normal return) reaches everything it spawned.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.setpgid(0, 0)
            payload = json.dumps(function(*args))
            with os.fdopen(write_fd, "w") as out:
                out.write(payload)
            status = 0
        except BaseException:  # report, then leave without unwinding
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass  # the child got there first, or is already gone
    payload = ""
    try:
        with os.fdopen(read_fd) as pipe:
            if select.select([pipe], [], [], WATCHDOG_S)[0]:
                payload = pipe.read()  # to EOF: the child is leaving
            else:
                print(f"watchdog: repeat silent for {WATCHDOG_S}s, killed",
                      file=sys.stderr)
                os.killpg(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    finally:
        try:
            os.killpg(pid, signal.SIGKILL)  # whatever the child left
        except ProcessLookupError:
            pass
    return json.loads(payload) if status == 0 and payload else None


def spread(values: list) -> dict:
    """Median, inter-quartile range and count of a sample."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0, "n": len(values)}
    low, __, high = quantiles(values, n=4)
    return {"median": median(values), "iqr": high - low, "n": len(values)}


def percentile(values: list, q: int) -> float:
    """The q-th percentile (q in 1..99) of a non-empty sample."""
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=100)[q - 1]


def session_latencies(repeats: list) -> list:
    """Per-session latency samples, milliseconds.

    Serial workloads time each session.  A fleet starts all its
    sessions together and they finish in the engine's last rounds, so
    a fleet session's latency is its repeat's wall time.
    """
    pooled = [ms for r in repeats for ms in r["session_ms"]]
    return pooled or [r["wall_s"] * 1e3 for r in repeats]


def end_to_end(repeats: list) -> dict:
    """Each end-to-end metric as median / IQR / n over plain repeats."""
    latencies = session_latencies(repeats)
    return {
        "sessions_per_s": spread(
            [r["sessions"] / r["wall_s"] for r in repeats]),
        "cpu_ms_per_session": spread(
            [r["cpu_s"] * 1e3 / r["sessions"] for r in repeats]),
        "session_ms_p50": spread(latencies),
        "gas_per_session": spread(
            [r["gas"] / r["sessions"] for r in repeats]),
        "setup_s": spread([r["setup_s"] for r in repeats]),
        "peak_rss_mb": spread([r["peak_rss_mb"] for r in repeats]),
    }


def layer_values(repeat: dict) -> dict:
    """The per-layer metrics one traced repeat supports."""
    trace, counts = repeat["trace"], repeat["counts"]
    spans, counters = trace["run"], trace["counters"]
    none = {"calls": 0, "total_ns": 0, "self_ns": 0}

    # Layer times cover the timed call only, so they add up to its
    # wall.  The two things fleets do during set-up instead (compile,
    # Split/Generate) are reported over the whole repeat.
    def self_s(name, scope=spans):
        return scope.get(name, none)["self_ns"] / 1e9

    def total_s(name, scope=spans):
        return scope.get(name, none)["total_ns"] / 1e9

    def calls(name, scope=spans):
        return scope.get(name, none)["calls"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    # The trace root: the engine's run on fleets, the session loop on
    # the serial workloads.  Coverage is the share of the root's wall
    # spent inside at least one wrapped entry point below it.
    root = "core.engine.run" if "core.engine.run" in spans else "bench.run"
    mined = calls("chain.mine_block") > 0
    net = repeat.get("net", {})
    return {
        "crypto.keccak.self_s": self_s("crypto.keccak"),
        "crypto.keccak.calls": calls("crypto.keccak"),
        "crypto.keccak.bytes": counters["keccak_bytes"],
        "crypto.keccak.rehash_fraction": ratio(
            counters["keccak_rehashed_bytes"], counters["keccak_bytes"]),
        "crypto.keccak.memo_hit_rate": ratio(
            counters["keccak_hits"],
            counters["keccak_hits"] + counters["keccak_misses"]),
        "crypto.sign.self_s": self_s("crypto.sign"),
        "crypto.sign.calls": calls("crypto.sign"),
        "crypto.recover.self_s": self_s("crypto.recover"),
        "crypto.recover.calls": calls("crypto.recover"),
        "crypto.recover.memo_hit_rate": ratio(
            counters["recover_hits"],
            counters["recover_hits"] + counters["recover_misses"]),
        "crypto.rlp.self_s": self_s("crypto.rlp"),
        "evm.execute.self_s": self_s("evm.execute"),
        "evm.execute.calls": calls("evm.execute"),
        # On-chain gas the sessions paid per second of EVM self time;
        # meaningless where the chain runs in another process.
        "evm.gas_per_s": ratio(repeat["gas"], self_s("evm.execute"))
        if mined else 0.0,
        "evm.jit.compile_s": self_s("evm.jit.compile"),
        "evm.jit.compiles": counters["jit_compiles"],
        # Compiles may all have happened before the timed call.
        "evm.jit.runs_per_compile": counters["jit_runs"]
        / max(1, counters["jit_compiles"]),
        "evm.analysis.hit_rate": ratio(
            counters["analysis_hits"],
            counters["analysis_hits"] + counters["analysis_misses"]),
        "lang.compile.self_s": self_s("lang.compile", trace["repeat"]),
        "lang.compile.calls": calls("lang.compile", trace["repeat"]),
        "chain.tx_sign_hash.self_s": self_s("chain.tx_sign_hash"),
        "chain.tx_sign_hash.total_s": total_s("chain.tx_sign_hash"),
        "chain.admission.self_s": self_s("chain.admission"),
        "chain.mine_block.self_s": self_s("chain.mine_block"),
        "chain.state_root.self_s": self_s("chain.state_root"),
        "chain.state_root.total_s": total_s("chain.state_root"),
        "chain.state_root.calls": calls("chain.state_root"),
        "chain.transactions_root.self_s": self_s("chain.transactions_root"),
        "chain.transactions_root.total_s": total_s(
            "chain.transactions_root"),
        "chain.mempool.self_s": self_s("chain.mempool"),
        "chain.blocks": counts["blocks"],
        "chain.txs": counts["txs"],
        "chain.txs_per_block": ratio(counts["txs"], counts["blocks"]),
        "core.engine.run_s": total_s("core.engine.run"),
        "core.engine.sched_self_s": self_s("core.engine.run"),
        "core.engine.rounds": counts.get("rounds", 0),
        "core.stage.split_generate_s": total_s(
            "core.stage.split_generate", trace["repeat"]),
        "core.stage.deploy_sign_s": total_s("core.stage.deploy_sign"),
        "core.stage.submit_challenge_s": total_s(
            "core.stage.submit_challenge"),
        "core.stage.dispute_resolve_s": total_s(
            "core.stage.dispute_resolve"),
        "core.settlement.self_s": self_s("core.settlement"),
        "core.settlement.batches": counts.get("batches", 0),
        "core.settlement.leaves_per_batch": ratio(
            counts.get("leaves", 0), counts.get("batches", 0)),
        "offchain.execute.self_s": self_s("offchain.execute"),
        "offchain.sign_bytecode.self_s": self_s("offchain.sign_bytecode"),
        "offchain.whisper.self_s": self_s("offchain.whisper"),
        "offchain.whisper.messages": calls("offchain.whisper"),
        "offchain.whisper.bytes": counts.get("whisper_bytes", 0),
        "net.requests_per_session": ratio(
            counts.get("requests", 0), repeat["sessions"]),
        "net.client.wait_s": self_s("net.request"),
        "net.retries": net.get("retries", 0),
        "net.node.cpu_s": net.get("node_cpu_s", 0.0),
        "net.participant.cpu_s": net.get("participant_cpu_s", 0.0),
        "obs.trace_root_s": total_s(root),
        "obs.trace_coverage": ratio(total_s(root) - self_s(root),
                                    total_s(root)),
    }


def per_layer(plain: list, traced: list, probes: dict) -> dict:
    """Every per-layer metric: medians over the traced repeats, tail
    and round-trip latencies from the plain ones, plus the probes."""
    per_repeat = [layer_values(r) for r in traced]
    values = {key: median(v[key] for v in per_repeat)
              for key in per_repeat[0]}
    rtts = [ms for r in plain for ms in r.get("net", {}).get("rtt_ms", [])]
    values.update(probes)
    values.update({
        "core.session_ms_p90": percentile(session_latencies(plain), 90),
        "net.rtt_ms_p50": percentile(rtts, 50) if rtts else 0.0,
        "net.rtt_ms_p99": percentile(rtts, 99) if rtts else 0.0,
        "obs.trace_overhead_x": median(r["wall_s"] for r in traced)
        / median(r["wall_s"] for r in plain),
    })
    return values


def collect(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Repeat a workload until ``seconds`` have passed.

    Returns ``(plain, traced, crashed)``.  With ``trace``, plain and
    traced repeats come in pairs whose order alternates, so both kinds
    see the same host.  A crashed or hung repeat ends the collection:
    the result is already incorrect, and a hang costs a whole watchdog
    period.
    """
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    for pair in itertools.count():
        order = (False, True) if pair % 2 == 0 else (True, False)
        for want_trace in order if trace else (False,):
            repeat = isolated(run_repeat, name, seed,
                              len(plain) + len(traced), want_trace)
            if repeat is None:
                return plain, traced, 1
            (traced if want_trace else plain).append(repeat)
        enough = (len(traced) >= MIN_TRACED_PAIRS if trace
                  else len(plain) >= MIN_REPEATS)
        if enough and time.perf_counter() >= deadline:
            return plain, traced, 0


def output_problems(seed: int, repeats: list) -> list:
    """The correctness gate across repeats.

    Outputs must not depend on the repeat, on tracing, or on the
    transport (a workload may name an in-process twin whose fingerprint
    it must share).  What each session must reach is checked inside the
    workload and arrives as its ``failed`` count.
    """
    problems = []
    reference = repeats[0]
    for key in ("fingerprint", "gas"):
        if any(r[key] != reference[key] for r in repeats):
            problems.append(f"{key} differs between repeats")
    for key in EXACT_COUNTS:
        if any(r["counts"].get(key) != reference["counts"].get(key)
               for r in repeats):
            problems.append(f"count {key!r} differs between repeats")
    if "twin" in reference:
        twin = isolated(run_repeat, reference["twin"], seed, -1, False)
        if twin is None:
            problems.append("the in-process twin crashed")
        elif twin["fingerprint"] != reference["fingerprint"]:
            problems.append("fingerprint differs from the in-process twin")
    return problems


def measure(spec: dict, name: str, seed: int, seconds: float,
            trace: bool) -> dict | None:
    """Run one workload for ``seconds`` and gate its outputs.

    Returns the result object (``correct``, ``attempted``, ``failed``,
    ``metrics``) plus a ``detail`` entry for the report, or None when
    there is nothing to report a metric from.
    """
    load_at_start = os.getloadavg()[0]
    plain, traced, crashed = collect(name, seed, seconds, trace)
    probes = isolated(run_probes) if trace and traced else None
    if not plain or (trace and probes is None):
        return None
    repeats = plain + traced
    problems = output_problems(seed, repeats)
    if crashed:
        problems.append("a repeat crashed or hung")
    attempted = repeats[0]["sessions"] * (len(repeats) + crashed)
    # A failed gate fails every session: nothing measured can be trusted.
    failed = attempted if problems else sum(r["failed"] for r in repeats)
    detail = {
        "workload": name, "seed": seed,
        "repeats": len(plain), "traced_repeats": len(traced),
        "failed_fraction": failed / attempted, "problems": problems,
        "fingerprint": repeats[0]["fingerprint"],
        "nproc": os.cpu_count(), "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
    }
    if "note" in repeats[0]:
        detail["note"] = repeats[0]["note"]
    if trace:
        values = per_layer(plain, traced, probes)
        declared = spec["per_layer"]
    else:
        detail["spread"] = end_to_end(plain)
        values = {key: stat["median"]
                  for key, stat in detail["spread"].items()}
        declared = spec["end_to_end"]
    if set(values) != set(declared):
        raise SystemExit(
            "error: BENCHMARK.json and bench/run.py disagree on metrics: "
            f"{sorted(set(values) ^ set(declared))}")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": values[key],
                          "unit": declared[key]["unit"]}
                    for key in declared},
        "detail": detail,
    }


def load_spec() -> dict:
    """BENCHMARK.json, indexed by workload and metric name."""
    raw = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "run_seconds": raw["run_seconds"],
        "why": {w["name"]: w["why"] for w in raw["workloads"]},
        "end_to_end": {m["name"]: m for m in raw["end_to_end"]},
        "per_layer": {m["name"]: m for m in raw["per_layer"]},
    }


def report(spec: dict, result: dict) -> None:
    """Print one workload's metrics, then its result object."""
    detail = result.pop("detail")
    spreads = detail.pop("spread", {})
    print(f"== {detail['workload']}: {spec['why'][detail['workload']]}")
    print(json.dumps(detail))
    for key, metric in result["metrics"].items():
        line = f"  {key:36s} {metric['value']:>16.6g} {metric['unit']}"
        if key in spreads:
            line += (f"   iqr {spreads[key]['iqr']:.4g}"
                     f"  n {spreads[key]['n']}")
        print(line)
    print(json.dumps(result))


def check_repeat(spec: dict, names: list, seed: int,
                 seconds: float) -> int:
    """Two sets of end-to-end runs; non-zero on a bound breach."""
    breaches = 0
    for name in names:
        first = measure(spec, name, seed, seconds, trace=False)
        second = measure(spec, name, seed, seconds, trace=False)
        if first is None or second is None:
            print(f"{name}: no measurement")
            breaches += 1
            continue
        print(f"== {name}: second set against the first")
        for key, declared in spec["end_to_end"].items():
            a = first["metrics"][key]["value"]
            b = second["metrics"][key]["value"]
            worse = (b - a) / a if declared["better"] == "lower" \
                else (a - b) / a
            breach = worse > declared["bound"]
            breaches += breach
            print(f"  {key:24s} {a:>14.6g} {b:>14.6g} {declared['unit']:10s}"
                  f" worse by {worse:+.4f}  bound {declared['bound']}"
                  f"{'  BREACH' if breach else ''}")
        if not (first["correct"] and second["correct"]):
            print("  outputs incorrect")
            breaches += 1
    return 1 if breaches else 0


def main(argv: list | None = None) -> int:
    """Parse the command line, run, print; the exit status."""
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no src/repro next to bench/; run from a checkout",
              file=sys.stderr)
        return 1
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec["why"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(spec["why"])
    if args.check_repeat:
        return check_repeat(spec, names, args.seed, args.seconds)
    for name in names:
        result = measure(spec, name, args.seed, args.seconds,
                         bool(args.trace))
        if result is None:
            print(f"error: {name} produced no measurement",
                  file=sys.stderr)
            return 1
        report(spec, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
