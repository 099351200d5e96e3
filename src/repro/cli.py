"""Command-line interface.

Usage (also via ``python -m repro``):

    repro compile  contract.sol [--contract NAME]
    repro classify contract.sol --contract NAME
    repro split    contract.sol --contract NAME --participants VAR \\
                   --result FN --settle FN [--out DIR] \\
                   [--challenge-period SECONDS] [--security-deposit WEI]
    repro demo     {betting,tender,escrow} [--dispute]
    repro trace    {betting,tender,escrow} [--dispute] [--no-jit] \\
                   [--emit-telemetry PATH]
    repro engine   [--sessions N] [--app NAME] [--mining MODE] \\
                   [--dishonest FRACTION] [--no-jit] [--compare] \\
                   [--store PATH] [--resume] [--transport {inproc,net}] \\
                   [--peer HOST:PORT] [--remote-role ROLE] \\
                   [--emit-telemetry PATH]
    repro node     [--listen HOST:PORT]
    repro participant --peer HOST:PORT --role ROLE \\
                   [--app NAME] [--sessions N] [--idle-timeout S]
    repro adversary {strategy,all} [--app NAME|all] [--deposits]

``split`` is the Split/Generate stage as a tool: it writes the
canonical on/off-chain pair next to your whole contract, ready to be
compiled and signed by every participant.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.annotations import SplitSpec
from repro.core.classify import classify_contract
from repro.core.splitter import split_contract
from repro.lang.compiler import compile_source
from repro.lang.parser import parse


def _read_source(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")


def _pick_contract(source: str, name: str | None) -> str:
    unit = parse(source)
    names = [c.name for c in unit.contracts if not c.is_interface]
    if name:
        if name not in names:
            raise SystemExit(
                f"error: no contract {name!r}; found: {names}")
        return name
    if len(names) != 1:
        raise SystemExit(
            f"error: multiple contracts {names}; pass --contract")
    return names[0]


def cmd_compile(args: argparse.Namespace) -> int:
    """Compile a Solis file and print its artefacts."""
    source = _read_source(args.file)
    result = compile_source(source)
    targets = ([args.contract] if args.contract
               else sorted(result.contracts))
    for name in targets:
        compiled = result.contract(name)
        print(f"contract {name}")
        print(f"  init code    : {len(compiled.init_code):,} bytes")
        print(f"  runtime code : {len(compiled.runtime_code):,} bytes")
        print(f"  bytecode hash: 0x{compiled.bytecode_hash.hex()}")
        if compiled.abi.constructor_inputs:
            ctor = ", ".join(compiled.abi.constructor_inputs)
            print(f"  constructor  : ({ctor})")
        for fn in compiled.abi.functions:
            flags = " payable" if fn.payable else ""
            returns = f" -> {fn.outputs[0]}" if fn.outputs else ""
            print(f"  0x{fn.selector.hex()}  {fn.signature}{returns}"
                  f"{flags}")
        for event in compiled.abi.events:
            print(f"  event {event.name}({', '.join(event.inputs)})")
        if args.bytecode:
            print(f"  0x{compiled.init_code.hex()}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    """Print the light/public vs heavy/private classification."""
    source = _read_source(args.file)
    name = _pick_contract(source, args.contract)
    contract = parse(source).contract(name)
    classification = classify_contract(
        contract, gas_threshold=args.gas_threshold)
    print(f"contract {name} — §II-B classification")
    for fn_name in classification.light_public:
        estimate = classification.estimates[fn_name]
        print(f"  light/public : {fn_name}  "
              f"(~{estimate.estimated_gas:,} gas"
              f"{', transfers value' if estimate.has_transfer else ''})")
    for fn_name in classification.heavy_private:
        estimate = classification.estimates[fn_name]
        traits = []
        if estimate.has_loop:
            traits.append("loops")
        traits.append(f"~{estimate.estimated_gas:,} gas")
        print(f"  heavy/private: {fn_name}  ({', '.join(traits)})")
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    """Split a whole contract and write the on/off-chain pair."""
    source = _read_source(args.file)
    name = _pick_contract(source, args.contract)
    spec = SplitSpec(
        participants_var=args.participants,
        result_function=args.result,
        settle_function=args.settle,
        challenge_period=args.challenge_period,
        security_deposit=args.security_deposit,
    )
    split = split_contract(source, name, spec)

    out_dir = Path(args.out) if args.out else Path(args.file).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    onchain_path = out_dir / f"{split.onchain_name}.sol"
    offchain_path = out_dir / f"{split.offchain_name}.sol"
    onchain_path.write_text(split.onchain_source + "\n")
    offchain_path.write_text(split.offchain_source + "\n")

    compiled = compile_source(split.offchain_source)
    offchain = compiled.contract(split.offchain_name)
    print(f"split {name} ({split.num_participants} participants, "
          f"result type {split.result_type_source})")
    print(f"  on-chain  -> {onchain_path} "
          f"({split.onchain_functions})")
    print(f"  off-chain -> {offchain_path} "
          f"({split.offchain_functions})")
    print(f"  off-chain init code: {len(offchain.init_code):,} bytes; "
          f"sign keccak256(init_code ‖ ctor args)")
    return 0


def _run_scenario(app: str, dispute: bool,
                  evm_jit: bool | None = None):
    """Drive one end-to-end scenario; returns (protocol, challenge).

    This is the shared body behind ``repro demo`` and ``repro trace``:
    build the app's protocol, walk it through Split/Generate →
    Deploy/Sign → Submit/Challenge and either finalize or (when the
    representative lies) escalate through Dispute/Resolve.
    """
    from repro.chain import EthereumSimulator, SimulatorConfig
    from repro.core import Participant, Strategy

    sim = EthereumSimulator(config=SimulatorConfig(evm_jit=evm_jit))
    first = Participant(
        account=sim.accounts[0], name="p0",
        strategy=(Strategy.LIES_ABOUT_RESULT if dispute
                  else Strategy.HONEST))
    second = Participant(account=sim.accounts[1], name="p1")

    if app == "betting":
        from repro.apps.betting import deploy_betting, make_betting_protocol

        protocol = make_betting_protocol(sim, first, second)
        deploy_betting(protocol, first)
        protocol.collect_signatures()
        plan = protocol.betting_plan
        protocol.call_onchain(first, "deposit", value=plan["stake"])
        protocol.call_onchain(second, "deposit", value=plan["stake"])
        sim.advance_time_to(plan["timeline"].t2 + 1)
    elif app == "tender":
        from repro.apps.tender import deploy_tender, make_tender_protocol

        third = Participant(account=sim.accounts[2], name="p2")
        protocol = make_tender_protocol(sim, first, second, third)
        deploy_tender(protocol, first)
        protocol.collect_signatures()
        protocol.call_onchain(first, "fund",
                              value=protocol.tender_plan["budget"])
    else:  # escrow
        from repro.apps.escrow import deploy_escrow, make_escrow_protocol

        protocol = make_escrow_protocol(sim, first, second)
        deploy_escrow(protocol, first)
        protocol.collect_signatures()
        protocol.call_onchain(first, "fund",
                              value=protocol.escrow_plan["price"])

    protocol.submit_result(first)
    challenge = protocol.run_challenge_window()
    if not challenge.disputed:
        protocol.finalize(second)
    return protocol, challenge


def cmd_demo(args: argparse.Namespace) -> int:
    """Run one scenario end-to-end and print the settlement summary."""
    protocol, challenge = _run_scenario(args.app, args.dispute)
    if not challenge.disputed:
        print(f"{args.app}: settled honestly via finalize")
    else:
        print(f"{args.app}: false submission overturned via dispute "
              f"({challenge.value.total_gas:,} gas)")
    outcome = protocol.outcome()
    print(f"outcome: {outcome.outcome!r} via {outcome.via}")
    print(f"gas by stage: {protocol.ledger.by_stage()}")
    return 0


def _print_span_tree(tracer) -> None:
    """Render finished spans as an indented tree with time and gas."""
    for depth, span in tracer.walk():
        labels = " ".join(
            f"{key}={value}"
            for key, value in sorted(span.labels.items()))
        gas = f"  gas={span.gas:,}" if span.gas else ""
        status = "" if span.status == "ok" else f"  [{span.status}]"
        print(f"  {'  ' * depth}{span.name}  "
              f"{span.duration * 1000:.2f}ms{gas}"
              f"{'  ' + labels if labels else ''}{status}")


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a scenario under full telemetry and print the trace."""
    from repro import obs
    from repro.obs.exporters import JsonlExporter

    exporters = []
    if args.emit_telemetry:
        exporters.append(JsonlExporter(args.emit_telemetry))
    with obs.telemetry(*exporters) as telemetry:
        with obs.span(obs.names.SPAN_SCENARIO, scenario=args.app,
                      dispute=args.dispute):
            protocol, challenge = _run_scenario(
                args.app, args.dispute,
                evm_jit=False if args.no_jit else None)

        print(f"trace: {args.app} "
              f"({'disputed' if challenge.disputed else 'honest'} path)")
        _print_span_tree(telemetry.tracer)

        profiler = telemetry.profiler
        print("top opcodes by gas:")
        for mnemonic, gas in profiler.top_opcodes(10):
            print(f"  {mnemonic:<14} {gas:>12,}")
        if args.top_slow:
            print("top opcodes by wall time:")
            for mnemonic, seconds in profiler.top_slow(10):
                print(f"  {mnemonic:<14} {seconds * 1000:>10.3f}ms")
            print("wall time by opcode category:")
            for category, seconds in profiler.time_by_category():
                print(f"  {category:<14} {seconds * 1000:>10.3f}ms")
        opcode_total = profiler.opcode_gas_total()
        ledger_total = protocol.ledger.total()
        print(f"opcode gas total : {opcode_total:,}")
        print(f"gas ledger total : {ledger_total:,}")
        if opcode_total != ledger_total:
            print("warning: opcode gas and ledger totals diverge")
    if args.emit_telemetry:
        print(f"telemetry written to {args.emit_telemetry}")
    return 0 if opcode_total == ledger_total else 1


def _parse_hostport(value: str, flag: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` CLI value; exits with a clear error."""
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"error: {flag} expects HOST:PORT, "
                         f"got {value!r}")
    return host or "127.0.0.1", int(port)


def _run_fleet(sessions: int, app: str, mining: str,
               dishonest: float,
               settlement: str = "direct", batch_size: int = 1,
               store: str | None = None, resume: bool = False,
               evm_jit: bool | None = None,
               peer: tuple[str, int] | None = None,
               remote_roles: tuple[str, ...] = ()):
    from repro.chain import EthereumSimulator, SimulatorConfig
    from repro.core import SessionEngine, spawn_fleet

    config = SimulatorConfig(num_accounts=2, auto_mine=False,
                             settlement=settlement,
                             batch_size=batch_size, evm_jit=evm_jit)
    if peer is not None:
        # Net transport: the chain lives in a `repro node` process;
        # this process keeps only keys and protocol state, and every
        # driver shares one Whisper transport over the same channel.
        from repro.crypto.keys import PrivateKey
        from repro.net import (
            ChannelClient,
            RemoteSimulator,
            RemoteWhisperTransport,
        )

        client = ChannelClient(peer[0], peer[1],
                               PrivateKey.from_seed("engine-client"))
        sim = RemoteSimulator(client, config=config)
    else:
        sim = EthereumSimulator(config=config)
    drivers = spawn_fleet(sim, sessions, app=app,
                          dishonest_fraction=dishonest,
                          remote_roles=remote_roles)
    if peer is not None:
        bus = RemoteWhisperTransport(sim.client)
        for driver in drivers:
            driver.protocol.bus = bus
    run_store = None
    if store is not None:
        from repro.core.recovery import RunStore

        run_store = RunStore(store)
        # Fleet-shaping flags the engine cannot see are bound into the
        # store's config record, so a --resume with different flags is
        # rejected instead of silently diverging.
        run_store.extra_config["dishonest"] = str(dishonest)
    engine = SessionEngine(sim, drivers, mining=mining,
                           store=run_store, resume=resume)
    try:
        metrics = engine.run()
    finally:
        if run_store is not None:
            run_store.close()
    return metrics, drivers, sim, engine


def _print_metrics(metrics) -> None:
    print(f"  mining mode      : {metrics.mining}")
    print(f"  sessions         : {metrics.sessions} "
          f"({metrics.disputes} disputed, "
          f"rate {metrics.dispute_rate:.0%})")
    print(f"  blocks mined     : {metrics.blocks_mined}")
    print(f"  transactions     : {metrics.transactions} "
          f"({metrics.txs_per_block:.1f} per block)")
    print(f"  total gas        : {metrics.total_gas:,} "
          f"({metrics.gas_per_session:,.0f} per session)")
    print(f"  wall clock       : {metrics.wall_clock_seconds:.2f}s")


def cmd_engine(args: argparse.Namespace) -> int:
    """Drive a fleet of sessions, optionally emitting telemetry."""
    from contextlib import nullcontext

    from repro import obs
    from repro.obs.exporters import JsonlExporter

    if args.sessions < 1:
        raise SystemExit("error: --sessions must be at least 1")
    if not 0.0 <= args.dishonest <= 1.0:
        raise SystemExit("error: --dishonest must be within [0, 1]")
    if args.batch_size is None:
        from repro.core.settlement import MAX_BATCH_SIZE

        args.batch_size = (min(args.sessions, MAX_BATCH_SIZE)
                           if args.settlement == "netted" else 1)
    elif args.settlement == "direct" and args.batch_size != 1:
        raise SystemExit(
            "error: --batch-size needs --settlement=netted")
    if args.resume and not args.store:
        raise SystemExit("error: --resume requires --store")
    if args.store and args.compare:
        raise SystemExit(
            "error: --compare runs two fleets; a store holds exactly "
            "one run — drop --store or --compare")
    peer = None
    if args.transport == "net":
        if not args.peer:
            raise SystemExit(
                "error: --transport=net requires --peer HOST:PORT "
                "(start one with `repro node`)")
        if args.store or args.resume:
            raise SystemExit(
                "error: --store/--resume are in-process features; the "
                "net transport's chain state lives in the node")
        peer = _parse_hostport(args.peer, "--peer")
    elif args.peer or args.remote_role:
        raise SystemExit(
            "error: --peer/--remote-role need --transport=net")
    scope = (obs.telemetry(JsonlExporter(args.emit_telemetry))
             if args.emit_telemetry else nullcontext())
    modes = (["batch", "per-tx"] if args.compare else [args.mining])
    results = []
    with scope:
        for mode in modes:
            print(f"{args.app} fleet, {args.sessions} sessions, "
                  f"{args.dishonest:.0%} dishonest:")
            metrics, drivers, sim, engine = _run_fleet(
                args.sessions, args.app, mode, args.dishonest,
                settlement=args.settlement,
                batch_size=args.batch_size, store=args.store,
                resume=args.resume,
                evm_jit=False if args.no_jit else None,
                peer=peer, remote_roles=tuple(args.remote_role))
            unsettled = [d.session_id for d in drivers if not d.settled]
            if unsettled:
                raise SystemExit(
                    f"error: sessions did not settle: {unsettled}")
            _print_metrics(metrics)
            from repro.core import fleet_fingerprint

            print(f"  fleet fingerprint: "
                  f"{fleet_fingerprint(drivers)}")
            if peer is not None:
                client = sim.client
                rtts = sorted(client.rtts)
                if rtts:
                    p50 = rtts[len(rtts) // 2]
                    p99 = rtts[min(len(rtts) - 1,
                                   (len(rtts) * 99) // 100)]
                    print(f"  net transport    : {client.requests} "
                          f"requests, {client.retries} retries, "
                          f"rtt p50 {p50 * 1000:.2f}ms / "
                          f"p99 {p99 * 1000:.2f}ms")
                client.close()
            if engine.batcher is not None:
                batcher = engine.batcher
                print(f"  netted batches   : {len(batcher.batches)} "
                      f"({batcher.sessions_settled} sessions, "
                      f"{batcher.amortized_gas_per_session():,.0f} "
                      f"batch gas per session)")
            if args.store:
                kv_stats = engine.store.kv.stats()
                print(f"  durable store    : {args.store} "
                      f"({kv_stats['wal_commits']} commits, "
                      f"{kv_stats['wal_records']} WAL records, "
                      f"{kv_stats['compactions']} compactions"
                      f"{', resumed' if args.resume else ''})")
            results.append((metrics, drivers))
    if args.emit_telemetry:
        print(f"telemetry written to {args.emit_telemetry}")
    if args.compare:
        (batch, batch_drivers), (per_tx, per_tx_drivers) = results
        ratio = (per_tx.blocks_mined / batch.blocks_mined
                 if batch.blocks_mined else float("inf"))
        same_ledgers = all(
            a.protocol.ledger.fingerprint() ==
            b.protocol.ledger.fingerprint()
            for a, b in zip(batch_drivers, per_tx_drivers))
        print(f"batch mining used {ratio:.1f}x fewer blocks; "
              f"per-session gas ledgers "
              f"{'identical' if same_ledgers else 'DIVERGED'}")
    return 0


def cmd_node(args: argparse.Namespace) -> int:
    """Run the shared chain-plus-bus node process.

    Binds the asyncio channel server and serves ``chain.*`` and
    ``bus.*`` commands until a client sends ``node.shutdown`` (or the
    process is interrupted).  Port 0 asks the OS for a free port; the
    bound address is printed as the first output line so parent
    processes can scrape it.
    """
    from repro.net import run_node

    host, port = _parse_hostport(args.listen, "--listen")
    try:
        run_node(host=host, port=port)
    except KeyboardInterrupt:
        print("repro-node interrupted", flush=True)
    return 0


def cmd_participant(args: argparse.Namespace) -> int:
    """Run a remote signer process for one or more fleet roles.

    Connects to a ``repro node``, derives the deterministic keys for
    ``--role`` across ``--sessions`` sessions of ``--app``, and serves
    Deploy/Sign signature requests from the node's shared bus until
    every expected signature is posted (``--expect`` overrides the
    default of one per session per role).
    """
    from repro.crypto.keys import PrivateKey
    from repro.net import ChannelClient, ParticipantNode

    if args.sessions < 1:
        raise SystemExit("error: --sessions must be at least 1")
    host, port = _parse_hostport(args.peer, "--peer")
    client = ChannelClient(host, port,
                           PrivateKey.from_seed("participant-client"))
    node = ParticipantNode(client, app=args.app,
                           sessions=args.sessions, roles=args.role)
    expect = (args.expect if args.expect is not None
              else args.sessions * len(args.role))
    print(f"{node.name} serving {expect} signature(s) for "
          f"{args.app} x {args.sessions}", flush=True)
    try:
        signed = node.serve(expect, idle_timeout=args.idle_timeout)
    finally:
        client.close()
    print(f"{node.name} signed {signed} request(s)")
    return 0


def cmd_adversary(args: argparse.Namespace) -> int:
    """Stage Byzantine strategies and check the rational-adherence
    invariants; non-zero exit when any invariant is violated."""
    from repro.adversary import (
        PROFILES,
        ScenarioHarness,
        check_invariants,
    )

    strategies = (sorted(PROFILES) if args.strategy == "all"
                  else [args.strategy])
    apps = (["betting", "escrow", "tender"] if args.app == "all"
            else [args.app])
    if args.deposits and apps != ["betting"]:
        raise SystemExit(
            "error: --deposits is only rendered for --app betting")
    if args.deposits and args.settlement == "netted":
        raise SystemExit(
            "error: --deposits settles per session; drop "
            "--settlement=netted")

    failures = 0
    for app in apps:
        harness = ScenarioHarness(app=app, deposits=args.deposits,
                                  settlement=args.settlement)
        for name in strategies:
            result = harness.run(name)
            violations = check_invariants(result)
            stages = " -> ".join(stage.name for stage in result.stages)
            verdict = ("ok" if not violations
                       else f"{len(violations)} violation(s)")
            print(f"{app}/{name}: {verdict}")
            print(f"  stages   : {stages}")
            if result.outcome is not None:
                print(f"  outcome  : {result.outcome.outcome!r} "
                      f"via {result.outcome.via}")
            for rejection in result.rejected_actions:
                print(f"  rejected : {rejection}")
            if result.dispute_gas:
                gas = ", ".join(f"{label}={value:,}" for label, value
                                in sorted(result.dispute_gas.items()))
                print(f"  dispute  : {gas} gas")
            if result.forfeited:
                print("  forfeited: "
                      f"{', '.join(result.forfeited)} (§IV deposit)")
            for violation in violations:
                print(f"  VIOLATION: {violation}")
            failures += len(violations)

    # Explicitly selecting crash-restart also graduates the crash to
    # real process death: SIGKILL a child `repro engine --store` run
    # mid-Submit/Challenge and verify --resume recovers bit-identically
    # ("all" sticks to the fast in-protocol scenarios).
    if args.strategy == "crash-restart":
        import tempfile

        from repro.adversary import run_kill_restart

        with tempfile.TemporaryDirectory(prefix="repro-crash-") as tmp:
            report = run_kill_restart(
                tmp, settlement=args.settlement, kill_mode="torn")
        verdict = ("bit-identical to the uninterrupted run"
                   if report.identical else "DIVERGED")
        print(f"kill-restart: child SIGKILLed after "
              f"{report.kill_after_commits} commits (torn WAL tail); "
              f"recovery {verdict}")
        for mismatch in report.mismatches:
            print(f"  VIOLATION: {mismatch}")
        if not report.identical:
            failures += max(1, len(report.mismatches))

    if failures:
        print(f"{failures} invariant violation(s)")
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="On/off-chain smart contracts (Li et al., ICDE 2019)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile Solis source")
    p_compile.add_argument("file")
    p_compile.add_argument("--contract")
    p_compile.add_argument("--bytecode", action="store_true",
                           help="print full init bytecode hex")
    p_compile.set_defaults(func=cmd_compile)

    p_classify = sub.add_parser(
        "classify", help="classify functions light/public vs heavy/private")
    p_classify.add_argument("file")
    p_classify.add_argument("--contract")
    p_classify.add_argument("--gas-threshold", type=int, default=100_000)
    p_classify.set_defaults(func=cmd_classify)

    p_split = sub.add_parser(
        "split", help="split a whole contract into the on/off-chain pair")
    p_split.add_argument("file")
    p_split.add_argument("--contract")
    p_split.add_argument("--participants", required=True,
                         help="address[N] state variable name")
    p_split.add_argument("--result", required=True,
                         help="heavy function computing the result")
    p_split.add_argument("--settle", required=True,
                         help="light function applying the result")
    p_split.add_argument("--challenge-period", type=int, default=3_600)
    p_split.add_argument("--security-deposit", type=int, default=0)
    p_split.add_argument("--out", help="output directory")
    p_split.set_defaults(func=cmd_split)

    p_demo = sub.add_parser("demo", help="run an end-to-end demo")
    p_demo.add_argument("app", choices=["betting", "tender", "escrow"])
    p_demo.add_argument("--dispute", action="store_true",
                        help="make the representative lie")
    p_demo.set_defaults(func=cmd_demo)

    p_trace = sub.add_parser(
        "trace",
        help="run a scenario under full telemetry and print the trace")
    p_trace.add_argument("app", choices=["betting", "tender", "escrow"])
    p_trace.add_argument("--dispute", action="store_true",
                         help="make the representative lie")
    p_trace.add_argument("--top-slow", action="store_true",
                         help="also report wall time per opcode and "
                              "per opcode category")
    p_trace.add_argument("--no-jit", action="store_true",
                         help="force the interpreter for every EVM "
                              "execution (the traced path itself "
                              "always interprets)")
    p_trace.add_argument("--emit-telemetry", metavar="PATH",
                         help="also stream spans + metrics snapshot "
                              "to PATH as JSONL")
    p_trace.set_defaults(func=cmd_trace)

    p_engine = sub.add_parser(
        "engine",
        help="drive a fleet of concurrent sessions with batched mining")
    p_engine.add_argument("--sessions", type=int, default=10)
    p_engine.add_argument("--app", default="betting",
                          choices=["betting", "tender", "escrow"])
    p_engine.add_argument("--mining", default="batch",
                          choices=["batch", "per-tx"])
    p_engine.add_argument("--dishonest", type=float, default=0.0,
                          help="fraction of sessions whose "
                               "representative lies (0..1)")
    p_engine.add_argument("--no-jit", action="store_true",
                          help="force the interpreter for every EVM "
                               "execution (disable the bytecode-to-"
                               "Python JIT)")
    p_engine.add_argument("--settlement", default="direct",
                          choices=["direct", "netted"],
                          help="settle per session (direct) or per "
                               "Merkle-committed batch (netted)")
    p_engine.add_argument("--batch-size", type=int, default=None,
                          help="sessions per netted batch "
                               "(default: the whole fleet, capped)")
    p_engine.add_argument("--store", metavar="PATH",
                          help="persist the run (WAL + snapshots) "
                               "under this directory; see "
                               "docs/persistence.md")
    p_engine.add_argument("--resume", action="store_true",
                          help="recover and finish the run held in "
                               "--store (flags must match the "
                               "original run)")
    p_engine.add_argument("--compare", action="store_true",
                          help="run both mining modes and compare")
    p_engine.add_argument("--transport", default="inproc",
                          choices=["inproc", "net"],
                          help="run the chain in-process or against a "
                               "`repro node` over the wire protocol")
    p_engine.add_argument("--peer", metavar="HOST:PORT",
                          help="the chain node to connect to "
                               "(requires --transport=net)")
    p_engine.add_argument("--remote-role", action="append",
                          default=[], metavar="ROLE",
                          help="fleet role whose Deploy/Sign "
                               "signature comes from a separate "
                               "`repro participant` process "
                               "(repeatable; requires --transport=net)")
    p_engine.add_argument("--emit-telemetry", metavar="PATH",
                          help="stream spans + metrics snapshot "
                               "to PATH as JSONL")
    p_engine.set_defaults(func=cmd_engine)

    p_node = sub.add_parser(
        "node",
        help="run the shared chain + Whisper-bus node process")
    p_node.add_argument("--listen", default="127.0.0.1:0",
                        metavar="HOST:PORT",
                        help="bind address (port 0 picks a free port; "
                             "the bound address is printed first)")
    p_node.set_defaults(func=cmd_node)

    p_participant = sub.add_parser(
        "participant",
        help="run a remote Deploy/Sign signer for fleet roles")
    p_participant.add_argument("--peer", required=True,
                               metavar="HOST:PORT",
                               help="the `repro node` to connect to")
    p_participant.add_argument("--role", action="append", required=True,
                               metavar="ROLE",
                               help="fleet role to sign for "
                                    "(repeatable)")
    p_participant.add_argument("--app", default="betting",
                               choices=["betting", "tender", "escrow"])
    p_participant.add_argument("--sessions", type=int, default=10,
                               help="fleet size (must match the "
                                    "engine's --sessions)")
    p_participant.add_argument("--expect", type=int, default=None,
                               help="signatures to serve before "
                                    "exiting (default: sessions x "
                                    "roles)")
    p_participant.add_argument("--idle-timeout", type=float,
                               default=30.0,
                               help="seconds without progress before "
                                    "this process fails loudly")
    p_participant.set_defaults(func=cmd_participant)

    p_adversary = sub.add_parser(
        "adversary",
        help="stage Byzantine strategies and check rational-adherence "
             "invariants")
    p_adversary.add_argument(
        "strategy",
        choices=["all", "withhold-signature", "false-result",
                 "late-dispute", "replay-copy", "crash-restart",
                 "censor-mempool", "lossy-transport"])
    p_adversary.add_argument(
        "--app", default="betting",
        choices=["betting", "tender", "escrow", "all"])
    p_adversary.add_argument(
        "--deposits", action="store_true",
        help="render the §IV security-deposit variant (betting only)")
    p_adversary.add_argument(
        "--settlement", default="direct",
        choices=["direct", "netted"],
        help="stage the scenarios against per-session (direct) or "
             "batched Merkle (netted) settlement")
    p_adversary.set_defaults(func=cmd_adversary)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: parse arguments and dispatch."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
