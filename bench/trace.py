"""Outside-in tracing shim: spans around each layer's public entry points.

The benchmark measures layers from outside ``src/``: :class:`Tracer`
rebinds a fixed table of public functions and methods (``ENTRY_POINTS``)
to timing wrappers, records one span per call, and restores every
binding afterwards.  Spans live in memory until :meth:`Tracer.write`.

A span is ``(name, start_ns, end_ns, parent, tag)``; ``parent`` is the
index of the span that was open when this one started (``-1`` for a
root) and ``tag`` is whatever the workload set as :attr:`Tracer.tag`
(repeat or session id).  A span's *self time* is its duration minus the
duration of its direct children; self times of a tree sum to its root.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from threading import get_ident

#: (module, attribute path, span name).  A dotted attribute path names a
#: method on a class.  Span names start with the layer (the module name
#: under ``src/repro/``) the time is charged to.
ENTRY_POINTS = (
    ("repro.crypto.keccak", "keccak256", "crypto.keccak"),
    ("repro.crypto.ecdsa", "sign", "crypto.sign"),
    ("repro.crypto.keys", "recover_address", "crypto.recover"),
    ("repro.crypto.keys", "recover_address_batch", "crypto.recover"),
    ("repro.crypto.rlp", "encode", "crypto.rlp"),
    ("repro.crypto.rlp", "decode", "crypto.rlp"),
    ("repro.evm.vm", "EVM.execute", "evm.execute"),
    ("repro.evm.jit", "compile_program", "evm.jit.compile"),
    ("repro.lang.compiler", "compile_source", "lang.compile"),
    ("repro.chain.transaction", "Transaction.create_signed",
     "chain.tx_sign_hash"),
    ("repro.chain.transaction", "Transaction.signing_hash",
     "chain.tx_sign_hash"),
    ("repro.chain.transaction", "Transaction.hash", "chain.tx_sign_hash"),
    ("repro.chain.transaction", "Transaction.sender", "chain.admission"),
    ("repro.chain.simulator", "EthereumSimulator.send_transaction",
     "chain.admission"),
    ("repro.chain.blockchain", "Blockchain.send_transaction",
     "chain.admission"),
    ("repro.chain.blockchain", "Blockchain.send_transactions",
     "chain.admission"),
    ("repro.chain.blockchain", "Blockchain.mine_block", "chain.mine_block"),
    ("repro.chain.state", "WorldState.state_root", "chain.state_root"),
    ("repro.chain.block", "transactions_root", "chain.transactions_root"),
    ("repro.chain.mempool", "Mempool.add", "chain.mempool"),
    ("repro.chain.mempool", "Mempool.add_batch", "chain.mempool"),
    ("repro.chain.mempool", "Mempool.pop_batch", "chain.mempool"),
    ("repro.chain.mempool", "Mempool.pending", "chain.mempool"),
    ("repro.core.engine", "SessionEngine.run", "core.engine.run"),
    ("repro.core.protocol", "OnOffChainProtocol.split_generate",
     "core.stage.split_generate"),
    ("repro.core.protocol", "OnOffChainProtocol.deploy",
     "core.stage.deploy_sign"),
    ("repro.core.protocol", "OnOffChainProtocol.prepare_deploy",
     "core.stage.deploy_sign"),
    ("repro.core.protocol", "OnOffChainProtocol.attach_onchain",
     "core.stage.deploy_sign"),
    ("repro.core.protocol", "OnOffChainProtocol.collect_signatures",
     "core.stage.deploy_sign"),
    ("repro.core.protocol", "OnOffChainProtocol.call_onchain",
     "core.stage.deploy_sign"),
    ("repro.core.protocol", "OnOffChainProtocol.reach_unanimous_agreement",
     "core.stage.submit_challenge"),
    ("repro.core.protocol", "OnOffChainProtocol.submit_result",
     "core.stage.submit_challenge"),
    ("repro.core.protocol", "OnOffChainProtocol.run_challenge_window",
     "core.stage.submit_challenge"),
    ("repro.core.protocol", "OnOffChainProtocol.finalize",
     "core.stage.submit_challenge"),
    ("repro.core.protocol", "OnOffChainProtocol.commit_batch",
     "core.stage.submit_challenge"),
    ("repro.core.protocol", "OnOffChainProtocol.settle_batch_commitment",
     "core.stage.submit_challenge"),
    ("repro.core.protocol", "OnOffChainProtocol.dispute",
     "core.stage.dispute_resolve"),
    ("repro.core.protocol", "OnOffChainProtocol.open_leaf",
     "core.stage.dispute_resolve"),
    ("repro.core.protocol", "OnOffChainProtocol.record_dispute",
     "core.stage.dispute_resolve"),
    ("repro.core.settlement", "MerkleTree.__init__", "core.settlement"),
    ("repro.core.settlement", "MerkleTree.proof", "core.settlement"),
    ("repro.core.settlement", "sign_final_state", "core.settlement"),
    ("repro.core.settlement", "SignedState.verify", "core.settlement"),
    ("repro.core.settlement", "SettlementBatcher.enlist",
     "core.settlement"),
    ("repro.core.settlement", "SettlementBatcher.prepare_batch",
     "core.settlement"),
    ("repro.core.settlement", "SettlementBatcher.commit_prepared",
     "core.settlement"),
    ("repro.core.settlement", "SettlementBatcher.finalize_prepared",
     "core.settlement"),
    ("repro.offchain.executor", "OffchainExecutor.execute",
     "offchain.execute"),
    ("repro.offchain.signing", "sign_bytecode", "offchain.sign_bytecode"),
    ("repro.offchain.whisper", "WhisperBus.post", "offchain.whisper"),
    ("repro.offchain.whisper", "WhisperBus.poll", "offchain.whisper"),
    ("repro.net.remote", "RemoteWhisperTransport.post", "offchain.whisper"),
    ("repro.net.remote", "RemoteWhisperTransport.poll", "offchain.whisper"),
    ("repro.net.client", "ChannelClient.call", "net.request"),
)

#: Entry points that call themselves through their module-level name;
#: only the outermost call is a span.
_RECURSIVE = {"crypto.rlp"}


class Tracer:
    """Records spans for the calling thread while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.tag = 0
        #: Bytes passed to keccak256, and the part whose exact input had
        #: already been hashed since install (the re-hash waste).
        self.keccak_bytes = 0
        self.keccak_rehashed_bytes = 0
        self._seen_inputs: set = set()
        self._stack = [-1]
        self._thread = get_ident()
        self._class_originals: list = []
        self._wrappers: list = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> tuple:
        """Start a span around harness code; pass the result to
        :meth:`close`."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, name, time.perf_counter_ns()

    def close(self, token: tuple) -> None:
        """End the span :meth:`open` started."""
        end = time.perf_counter_ns()
        index, name, start = token
        self._stack.pop()
        self.spans[index] = (name, start, end, self._stack[-1], self.tag)

    def _wrap(self, fn, name: str):
        """A timing wrapper around ``fn``; other threads pass through."""
        tracer = self
        now = time.perf_counter_ns
        recursive = name in _RECURSIVE
        is_keccak = name == "crypto.keccak"
        depth = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal depth
            if get_ident() != tracer._thread or (depth and recursive):
                return fn(*args, **kwargs)
            if is_keccak:
                tracer._note_keccak_input(args[0])
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            spans.append(None)
            stack.append(index)
            depth += 1
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                depth -= 1
                stack.pop()
                spans[index] = (name, start, end, stack[-1], tracer.tag)

        self._wrappers.append(traced)
        return traced

    def _note_keccak_input(self, data) -> None:
        key = (len(data), hash(data if isinstance(data, bytes)
                               else bytes(data)))
        self.keccak_bytes += len(data)
        if key in self._seen_inputs:
            self.keccak_rehashed_bytes += len(data)
        else:
            self._seen_inputs.add(key)

    def counters(self) -> dict:
        """Cumulative counts to difference across a span: keccak input
        bytes, and the hit/miss counters of the caches ``repro`` keeps."""
        from repro.crypto.keccak import keccak_cache_info
        from repro.crypto.keys import recover_cache_info
        from repro.evm import jit
        from repro.evm.analysis import analyze_code

        keccak, recover = keccak_cache_info(), recover_cache_info()
        analysis, programs = analyze_code.cache_info(), jit.cache_info()
        return {
            "keccak_bytes": self.keccak_bytes,
            "keccak_rehashed_bytes": self.keccak_rehashed_bytes,
            "keccak_hits": keccak.hits, "keccak_misses": keccak.misses,
            "recover_hits": recover.hits, "recover_misses": recover.misses,
            "analysis_hits": analysis.hits,
            "analysis_misses": analysis.misses,
            "jit_compiles": programs["programs"],
            "jit_runs": programs["compiled_runs"],
        }

    # -- install / uninstall -------------------------------------------

    def install(self) -> None:
        """Rebind every entry point to its wrapper.

        Functions are rebound on the defining module and on every
        loaded ``repro.*`` module that from-imported them; methods are
        rebound on their class, keeping classmethod / staticmethod /
        cached_property descriptors intact.
        """
        for module_name, path, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if not owner_name:
                original = getattr(module, attr)
                wrapper = self._wrap(original, name)
                for holder in _repro_modules():
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)
                continue
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._class_originals.append((owner, attr, original))
            if isinstance(original, (classmethod, staticmethod)):
                replacement = type(original)(
                    self._wrap(original.__func__, name))
            elif isinstance(original, functools.cached_property):
                replacement = functools.cached_property(
                    self._wrap(original.func, name))
                replacement.__set_name__(owner, attr)
            else:
                replacement = self._wrap(original, name)
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced.

        Modules are scanned again rather than replayed from a record,
        so a module first imported while the shim was installed (and
        that from-imported a wrapper) is restored too.
        """
        wrappers = {id(w): w.__wrapped__ for w in self._wrappers}
        for holder in _repro_modules():
            for key, value in list(vars(holder).items()):
                original = wrappers.get(id(value))
                if original is not None:
                    setattr(holder, key, original)
        for owner, attr, original in reversed(self._class_originals):
            setattr(owner, attr, original)
        self._class_originals.clear()
        self._wrappers.clear()

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        """Write one JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, tag) in enumerate(
                    self.spans):
                out.write(json.dumps({
                    "id": index, "name": name,
                    "layer": name.split(".", 1)[0],
                    "start_ns": start, "end_ns": end,
                    "parent": parent, "tag": tag}) + "\n")


def _repro_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def summarise(spans, root: str | None = None) -> dict:
    """Per span name: calls, total (inclusive) and self nanoseconds.

    Self time is the span minus its direct children, so the self times
    of all spans under one root add up to that root's duration exactly.
    With ``root``, only trees whose root span has that name are counted.
    """
    child_ns = [0] * len(spans)
    counted = [True] * len(spans)
    for index, (name, start, end, parent, tag) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            counted[index] = counted[parent]
        elif root is not None:
            counted[index] = name == root
    summary: dict = {}
    for index, (name, start, end, parent, tag) in enumerate(spans):
        if not counted[index]:
            continue
        entry = summary.setdefault(
            name, {"calls": 0, "total_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["total_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[index]
    return summary
