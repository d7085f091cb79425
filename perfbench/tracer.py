"""Per-layer tracer for the benchmark's traced samples.

The tracer wraps functions of each ``xchain`` module from outside the
program: every public module-level function and every public method of
a public class the module defines, minus the exclusions in ``LAYERS``
and ``_skipped``.
Each wrapper is a span. It counts calls and measures the span's self
time: its duration minus the durations of the spans it encloses.

``from .hashing import keccak256`` copies a function into the importing
module, so wrapping only the defining module would miss those calls.
``install`` therefore rebinds every copy it finds in any loaded
``xchain`` module, and then fails if any module, class, container,
default argument or closure still holds an unwrapped original. Imports
made inside a function body read the defining module at call time and
see the wrapper.

Install the tracer before any world is built: objects created earlier
may hold bound methods of the originals.
"""

import enum
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Dict, List

# (module, layer, spans). ``None`` wraps every public function and
# public method of the module except those ``_skipped``; a tuple names the
# only spans. The engine gets one span, World.run: its own code runs
# inside that span, so its self time is World.run minus every other
# layer's spans. The scenario layer is timed only for parsing and world
# building, which is set-up work.
LAYERS = (
    ("xchain.hashing", "hashing", None),
    ("xchain.accounts", "accounts", None),
    ("xchain.rlp", "rlp", None),
    ("xchain.threshold.bn254", "bn254", None),
    ("xchain.threshold.scheme", "threshold", None),
    ("xchain.wire", "wire", None),
    ("xchain.coordination", "coordination", None),
    ("xchain.sidechain", "sidechain", None),
    ("xchain.simnet", "simnet", None),
    ("xchain.engine", "engine", ("World.run",)),
    ("xchain.scenario", "scenario", ("Scenario.load", "_Runner.build")),
)

# Private spans wrapped as well: the backends' pairing checks, counted on
# both schemes for engine.pair_checks_per_tx.
EXTRA = {
    "xchain.threshold.scheme": ("_ModPBackend.pair_check", "_Bn254Backend.pair_check"),
}


def _skipped(module: str, qualname: str) -> bool:
    if module == "xchain.threshold.bn254":
        # Fp2/Fp12 arithmetic: ~25k calls per pairing check, 400k+ per
        # swap_bn254 run; a span on each would cost more than the work.
        return qualname.startswith(("f2_", "f12_"))
    if module == "xchain.simnet":
        # The event loop dispatches engine work through private
        # callbacks; leaving it unwrapped keeps that work in World.run.
        # payload_digest is called only by SimNet.record and counts as
        # part of recording a trace line.
        return qualname in ("SimNet.run_until_quiescent", "payload_digest")
    return False


class TracerCoverageError(RuntimeError):
    pass


@dataclass
class SpanStats:
    layer: str
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    raised: int = 0


class Tracer:
    def __init__(self):
        self.spans: Dict[str, SpanStats] = {}
        self.originals: Dict[str, object] = {}
        self.keccak_bytes = 0
        self.finalize_decisions: Dict[str, int] = {"commit": 0, "ignore": 0}
        self.engine_self_s = 0.0
        self.installed_at = 0.0
        self._stack: List[float] = []
        self._other_self = [0.0]  # self time of every non-engine span so far
        self._wrapper_of: Dict[int, object] = {}
        self._wrappers: set = set()

    # -- wrapping ----------------------------------------------------------

    def _span(self, name: str, layer: str, fn, observe=None, counted=()):
        stats = self.spans[name] = SpanStats(layer)
        stack = self._stack
        other_self = self._other_self
        engine = layer == "engine"
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe is not None:
                observe(args)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except counted:
                stats.raised += 1
                raise
            finally:
                elapsed = clock() - start
                own = elapsed - stack.pop()
                stats.calls += 1
                stats.self_s += own
                stats.total_s += elapsed
                if not engine:
                    other_self[0] += own
                if stack:
                    stack[-1] += elapsed

        return traced

    def _world_run_span(self, fn):
        """World.run: also credits the engine with the run's duration
        minus every other layer's self time inside it."""
        inner = self._span("engine.World.run", "engine", fn)
        other_self = self._other_self
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            others_before = other_self[0]
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.engine_self_s += (clock() - start) - (other_self[0] - others_before)

        return traced

    def _observer(self, name: str):
        if name == "hashing.keccak256":
            def observe(args):
                self.keccak_bytes += len(args[0])
            return observe
        if name == "sidechain.SidechainState.finalize":
            def observe(args):
                self.finalize_decisions[args[2].value] += 1
            return observe
        return None

    def install(self) -> None:
        """Wrap every target and rebind every copy; raises
        TracerCoverageError if an unwrapped original stays reachable."""
        from xchain.coordination import CoordinationError
        from xchain.sidechain import ExecutionError

        counted = {"coordination": CoordinationError, "sidechain": ExecutionError}
        for module_name, layer, only in LAYERS:
            module = importlib.import_module(module_name)
            targets = list(only) if only else _public_targets(module)
            targets += EXTRA.get(module_name, ())
            for qualname in targets:
                if only is None and _skipped(module_name, qualname):
                    continue
                self._wrap_target(module, layer, qualname, counted.get(layer, ()))
        self._rebind_copies()
        self.check_coverage()
        self.installed_at = time.monotonic()

    def _wrap_target(self, module, layer: str, qualname: str, counted) -> None:
        owner, attr = module, qualname
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name)
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        name = f"{layer}.{qualname}"
        if name == "engine.World.run":
            wrapper = self._world_run_span(fn)
        else:
            wrapper = self._span(name, layer, fn, self._observer(name), counted)
        self.originals[name] = fn
        self._wrapper_of[id(fn)] = wrapper
        self._wrappers.add(id(wrapper))
        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    def _rebind_copies(self) -> None:
        for module in _xchain_modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrapper_of.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def check_coverage(self) -> None:
        """Fail if any loaded xchain module still reaches an original."""
        originals = {id(fn): name for name, fn in self.originals.items()}
        leaks = []
        for module in _xchain_modules():
            for where, value in _reachable(module):
                if id(value) in self._wrappers:
                    continue
                if id(value) in originals:
                    leaks.append(f"{where} -> {originals[id(value)]}")
                for inner in _function_refs(value):
                    if id(inner) in originals:
                        leaks.append(f"{where} (default or closure) -> {originals[id(inner)]}")
        if leaks:
            raise TracerCoverageError("unwrapped originals: " + "; ".join(sorted(set(leaks))))

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans[name].calls

    def self_s(self, name: str) -> float:
        return self.spans[name].self_s

    def layer_self_s(self, layer: str) -> float:
        if layer == "engine":
            return self.engine_self_s
        return sum(s.self_s for s in self.spans.values() if s.layer == layer)


def _public_targets(module) -> List[str]:
    """Public functions and public methods of public classes that the
    module itself defines (properties and inherited members excluded)."""
    targets = []
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if isinstance(value, type):
            if issubclass(value, (BaseException, enum.Enum)):
                continue
            for attr, member in vars(value).items():
                if attr.startswith("_"):
                    continue
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                if callable(fn) and hasattr(fn, "__code__"):
                    targets.append(f"{name}.{attr}")
        elif callable(value) and (hasattr(value, "__code__") or hasattr(value, "cache_info")):
            targets.append(name)
    return targets


def _xchain_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "xchain" or name.startswith("xchain."))]


def _reachable(module):
    """(label, value) for module globals, one level into module-level
    containers, and the members of classes the module defines."""
    for attr, value in vars(module).items():
        where = f"{module.__name__}.{attr}"
        yield where, value
        if isinstance(value, dict):
            for key, item in value.items():
                yield f"{where}[{key!r}]", item
        elif isinstance(value, (list, tuple, set, frozenset)):
            for item in value:
                yield f"{where}[]", item
        elif isinstance(value, type) and value.__module__ == module.__name__:
            for member_name, member in vars(value).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                yield f"{where}.{member_name}", member


def _function_refs(value):
    """Functions held by a function's defaults and closure cells."""
    fn = getattr(value, "__func__", value)
    refs = list(getattr(fn, "__defaults__", None) or ())
    refs += list((getattr(fn, "__kwdefaults__", None) or {}).values())
    for cell in getattr(fn, "__closure__", None) or ():
        try:
            refs.append(cell.cell_contents)
        except ValueError:  # empty cell
            pass
    return refs


# -- per-layer metrics ------------------------------------------------------

def layer_metrics(tracer: Tracer, outcome, traced_s: float) -> Dict[str, tuple]:
    """{metric name: (value, unit)} for one traced sample, given its
    ``workloads.Outcome`` and ``traced_s``, the time from ``install`` to
    the workload's end. Spans cover that whole time, set-up included.
    Counts are exact; times are self times in seconds."""
    t = tracer
    m: Dict[str, tuple] = {}

    def count(name, value):
        m[name] = (value, "count")

    def seconds(name, value):
        m[name] = (value, "s")

    def ratio(name, num, den):
        m[name] = (num / den if den else 0.0, "ratio")

    count("hashing.keccak256.calls", t.calls("hashing.keccak256"))
    m["hashing.keccak256.bytes"] = (t.keccak_bytes, "B")
    seconds("hashing.keccak256.self_s", t.self_s("hashing.keccak256"))

    recover = t.originals["accounts.recover_digest"].cache_info()
    count("accounts.sign_digest.calls", t.calls("accounts.sign_digest"))
    count("accounts.recover_digest.calls", t.calls("accounts.recover_digest"))
    ratio("accounts.recover_digest.hit_ratio", recover.hits, recover.hits + recover.misses)
    count("accounts.address_of.calls", t.calls("accounts.address_of"))
    seconds("accounts.self_s", t.layer_self_s("accounts"))

    count("rlp.encode.calls", t.calls("rlp.encode"))
    count("rlp.decode.calls", t.calls("rlp.decode"))
    seconds("rlp.self_s", t.layer_self_s("rlp"))

    # Shares of traced_s rather than seconds: the modp workloads make no
    # bn254 call, and a time of exactly zero on every run is
    # indistinguishable from one never measured.
    for op in ("g1_mul", "g2_mul", "miller_loop", "final_exponentiation"):
        count(f"bn254.{op}.calls", t.calls(f"bn254.{op}"))
        ratio(f"bn254.{op}.self_share", t.self_s(f"bn254.{op}"), traced_s)
    count("bn254.pairing_check.calls", t.calls("bn254.pairing_check"))
    count("bn254.hash_to_g1.calls", t.calls("bn254.hash_to_g1"))

    scheme_calls = {op: t.calls(f"threshold.ThresholdScheme.{op}")
                    for op in ("sign_share", "verify_share", "combine", "verify")}
    scheme_calls["keygen"] = t.calls("threshold.ThresholdScheme.keygen_dealer")
    for op, calls in scheme_calls.items():
        count(f"threshold.{op}.calls", calls)
    ratio("threshold.checks_per_signature",
          scheme_calls["verify_share"] + scheme_calls["verify"], scheme_calls["combine"])
    seconds("threshold.self_s", t.layer_self_s("threshold"))

    tx_hash = t.originals["wire.tx_hash"].cache_info()
    count("wire.tx_hash.calls", t.calls("wire.tx_hash"))
    ratio("wire.tx_hash.hit_ratio", tx_hash.hits, tx_hash.hits + tx_hash.misses)
    count("wire.verify_common_signer.calls", t.calls("wire.verify_common_signer"))
    count("wire.encode_message.calls", t.calls("wire.encode_message"))
    seconds("wire.self_s", t.layer_self_s("wire"))

    coordination = [t.spans[f"coordination.CoordinationChain.{op}"]
                    for op in ("start", "commit", "ignore")]
    for op, stats in zip(("start", "commit", "ignore"), coordination):
        count(f"coordination.{op}.calls", stats.calls)
    ratio("coordination.rejected", sum(s.raised for s in coordination),
          sum(s.calls for s in coordination))
    seconds("coordination.self_s", t.layer_self_s("coordination"))

    lock = t.spans["sidechain.SidechainState.lock"]
    count("sidechain.lock.calls", lock.calls)
    count("sidechain.lock.refused", lock.raised)
    count("sidechain.finalize.commit", t.finalize_decisions["commit"])
    count("sidechain.finalize.discard", t.finalize_decisions["ignore"])
    seconds("sidechain.self_s", t.layer_self_s("sidechain"))

    c = outcome.counts
    sends = t.calls("simnet.SimNet.send")
    count("simnet.send.calls", sends)
    count("simnet.dropped", c["dropped"])
    count("simnet.trace_records", c["trace_records"])
    m["simnet.ticks"] = (c["ticks"], "ticks")
    seconds("simnet.record.self_s", t.self_s("simnet.SimNet.record"))
    seconds("simnet.self_s", t.layer_self_s("simnet"))

    submitted = c["handles"]
    count("engine.tx.submitted", submitted)
    count("engine.tx.committed", c["committed"])
    count("engine.tx.failed", c["failed_handles"])
    pair_checks = (t.calls("threshold._ModPBackend.pair_check")
                   + t.calls("threshold._Bn254Backend.pair_check"))
    ecdsa = t.calls("accounts.sign_digest") + recover.misses
    per_tx = {"messages": sends, "pair_checks": pair_checks,
              "keccak": t.calls("hashing.keccak256"), "ecdsa": ecdsa}
    for what, total in per_tx.items():
        m[f"engine.{what}_per_tx"] = (total / submitted if submitted else 0.0, "count/tx")
    holds = outcome.lock_hold_ticks
    m["engine.lock_hold_ticks.mean"] = (sum(holds) / len(holds) if holds else 0.0, "ticks")
    seconds("engine.self_s", t.layer_self_s("engine"))

    seconds("scenario.load_s", t.spans["scenario.Scenario.load"].total_s)
    seconds("scenario.build_s", t.spans["scenario._Runner.build"].total_s)
    return m
