"""The benchmark's workloads and the output checks every sample makes.

Each workload runs shipped scenario files through the public API
(``Scenario.run`` / ``run_sweep``) and returns an ``Outcome``: how many
operations it attempted, how many ended wrong and why, the sha256 of the
trace lines, and counts that repeat exactly for one seed on any machine.

An operation is one crosschain transaction or crosschain view submitted
by the workload (one per sweep cell). An operation is wrong when any of
these fails for its world: an embedded scenario assertion, the sweep
cell's expected outcome, agreement between the transaction handle, the
coordination contract's status and the contracts' finalize decisions,
``atomicity_ok``, no lock left at quiescence, no tick-limit halt. At the
scenario's own seed the trace digest must also equal the reference
recorded below; at any other seed the remaining checks apply.
"""

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from xchain.coordination import EffectiveStatus, UnknownEntryError
from xchain.engine import World
from xchain.scenario import Scenario, ScenarioResult, run_sweep
from xchain.sidechain import LockStatus

SWEEP_FAULT_KINDS = ["crash_node", "remove_validator", "drop_message"]


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str            # path relative to the repository root
    scheme: Optional[str]    # overrides config.scheme when set
    sweep: bool
    ops: int                 # crosschain txs + views submitted (sweep: cells)
    reference_sha256: str    # trace digest at the scenario's own seed


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("swap_bn254", "scenarios/atomic_swap.scn", "bn254", False, 2,
             "81df8625c0ffe369d92aef10a553c1d9475a046f7d655faadb8657a8648d289c"),
    Workload("livelock_modp", "scenarios/livelock.scn", None, False, 20,
             "ff67c1fafa6b811cf75d7ce522950b795d7c9fb56b871fe1866afe22b93ced8b"),
    Workload("sweep_modp", "scenarios/fault_sweep.scn", None, True, 42,
             "15c743fcd1c829681754ff44d879c231317f7b2920795e51a46b75ecbe1c6b34"),
)}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    trace_sha256: str = ""
    counts: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("worlds", "handles", "committed", "failed_handles", "unresolved_handles",
         "trace_records", "messages", "dropped", "ticks"), 0))
    lock_hold_ticks: List[int] = field(default_factory=list)


class Observer:
    """Checks and counts each finished world as it arrives, so the
    sample holds no world longer than the program itself does."""

    def __init__(self):
        self.outcome = Outcome()
        self.world_problems: List[List[str]] = []
        self.submitted = 0
        self._digest = hashlib.sha256()

    def world(self, result: ScenarioResult) -> None:
        net = result.world.net
        self._digest.update(net.trace_lines().encode())
        self.world_problems.append(check_world(result))
        handles = [h for hs in result.handles.values() for h in hs]
        self.submitted += len(handles) + len(result.view_results)
        c = self.outcome.counts
        c["worlds"] += 1
        c["handles"] += len(handles)
        c["committed"] += sum(1 for h in handles if h.committed)
        c["failed_handles"] += sum(1 for h in handles if h.failure_reason is not None)
        c["unresolved_handles"] += sum(1 for h in handles if h.outcome is None)
        c["trace_records"] += len(net.trace)
        c["messages"] += sum(1 for rec in net.trace if rec.kind == "send")
        c["dropped"] += sum(1 for rec in net.trace if rec.kind == "drop")
        c["ticks"] += net.tick
        self.outcome.lock_hold_ticks += lock_hold_ticks(result.world.audit_log)

    def finish(self) -> Outcome:
        self.outcome.trace_sha256 = self._digest.hexdigest()
        return self.outcome


def load(workload: Workload, root: str) -> Scenario:
    scenario = Scenario.load(f"{root}/{workload.scenario}")
    if workload.scheme:
        scenario.doc.setdefault("config", {})["scheme"] = workload.scheme
    return scenario


def run(workload: Workload, root: str, seed: Optional[int]) -> Outcome:
    """Run the workload once and check every output; ``seed`` None means
    the scenario file's own seed."""
    scenario = load(workload, root)
    observer = Observer()
    outcome = observer.outcome
    if workload.sweep:
        plain_run = scenario.run

        def observed_run(*args, **kwargs):
            result = plain_run(*args, **kwargs)
            observer.world(result)
            return result

        scenario.run = observed_run
        report = run_sweep(scenario, SWEEP_FAULT_KINDS, seed=seed)
        for (cell, got, _atomic, ok), problems in zip(report.cells, observer.world_problems):
            if not ok:
                problems.append(f"sweep cell {cell.name}: expected {cell.expected}, got {got}")
            _tally(outcome, problems, 1)
        submitted = len(report.cells)
    else:
        observer.world(scenario.run(seed=seed))
        submitted = observer.submitted
        _tally(outcome, observer.world_problems[0], submitted)
    observer.finish()

    if submitted != workload.ops:
        outcome.problems.append(f"submitted {submitted} operations, expected {workload.ops}")
    if seed in (None, scenario.seed) and outcome.trace_sha256 != workload.reference_sha256:
        outcome.problems.append(f"trace sha256 {outcome.trace_sha256} differs from the "
                                f"reference {workload.reference_sha256}")
    if outcome.problems and not outcome.failed:
        # a run-wide failure: no single operation can be blamed
        outcome.attempted = max(outcome.attempted, workload.ops)
        outcome.failed = outcome.attempted
    return outcome


def _tally(outcome: Outcome, problems: List[str], ops: int) -> None:
    outcome.attempted += ops
    if problems:
        outcome.failed += ops
        outcome.problems.extend(problems)


def check_world(result: ScenarioResult) -> List[str]:
    """Every check of one finished world; returns what went wrong."""
    world = result.world
    problems = [f"assertion {a.line()}" for a in result.assertions if not a.ok]
    if world.net.tick_limit_hit:
        problems.append("tick limit hit")
    for chain_id, sidechain in world.sidechains.items():
        for address, contract in sidechain.state.contracts.items():
            if contract.lock.status is LockStatus.LOCKED:
                problems.append(f"{chain_id.short()}:{address.hex()[:8]} left locked")
    for handles in result.handles.values():
        for handle in handles:
            problems.extend(_handle_problems(world, handle))
    return problems


def _handle_problems(world: World, handle) -> List[str]:
    """The handle, the coordination contract and the participating
    contracts' finalize decisions must tell one story."""
    tx_id = handle.crosschain_tx_id
    label = f"{handle.alias or 'tx'}:{tx_id.short()}"
    if not world.atomicity_ok(tx_id):
        return [f"{label}: mixed finalize decisions"]
    chain = world.coordination.get(handle.coordination_ref)
    status = None
    if chain is not None:
        try:
            status = chain.status_of(tx_id, handle.originating_sidechain_id)
        except UnknownEntryError:
            pass
    ledger_committed = status is EffectiveStatus.COMMITTED
    participants = world.participating_contracts(tx_id)
    decisions = {(rec["sidechain"], rec["contract"]): rec["decision"]
                 for rec in world.finalize_decisions(tx_id)}
    if ledger_committed:
        contracts_agree = bool(participants) and all(
            decisions.get(p) == "commit" for p in participants)
    else:
        contracts_agree = "commit" not in decisions.values()
    problems = []
    if not contracts_agree:
        problems.append(f"{label}: coordination {status} but finalize decisions "
                        f"{sorted(decisions.values())}")
    if handle.outcome is not None and handle.committed != ledger_committed:
        problems.append(f"{label}: handle {handle.outcome} but coordination {status}")
    return problems


def lock_hold_ticks(audit_log) -> List[int]:
    """Ticks from each contract's lock (``mined``) to its ``finalize``."""
    locked_at = {}
    holds = []
    for rec in audit_log:
        key = (rec.get("tx"), rec.get("sidechain"), rec.get("contract"))
        if rec["kind"] == "mined":
            locked_at[key] = rec["tick"]
        elif rec["kind"] == "finalize" and key in locked_at:
            holds.append(rec["tick"] - locked_at.pop(key))
    return holds


def first_call_hook(on_first: Callable[[], None]) -> None:
    """Wrap ``World.run`` so ``on_first`` fires once, at the first call:
    that moment ends the benchmark's set-up phase."""
    plain = World.run
    fired = []

    def run(self, *args, **kwargs):
        if not fired:
            fired.append(True)
            on_first()
        return plain(self, *args, **kwargs)

    World.run = run
