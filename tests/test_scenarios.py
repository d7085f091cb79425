"""The shipped scenario corpus, the CLI surface, and trace determinism."""

from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from xchain.cli import main
from xchain.coordination import CoordinationChain, CoordinationError, EffectiveStatus
from xchain.scenario import Scenario, ScenarioError
from xchain.sidechain import LockedViewPolicy
from xchain.simnet import FaultSpec, SimNet
from xchain.wire import CrosschainTxId, SidechainId

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
TESTDATA = Path(__file__).parent.parent / "testdata"

ALL_SCENARIOS = sorted(p.name for p in SCENARIO_DIR.glob("*.scn"))


def test_corpus_is_complete():
    assert set(ALL_SCENARIOS) >= {
        "atomic_swap.scn", "conditional_buy.scn", "conditional_buy_mismatch.scn",
        "livelock.scn", "livelock_jitter.scn", "timeout_liveness.scn",
        "nonlockable.scn", "fault_sweep.scn",
    }


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_passes(name):
    result = Scenario.load(str(SCENARIO_DIR / name)).run()
    failing = [a.line() for a in result.assertions if not a.ok]
    assert result.ok, failing


def test_trace_determinism_in_process():
    scenario = Scenario.load(str(SCENARIO_DIR / "conditional_buy.scn"))
    first = scenario.run().world.net.trace_lines()
    second = scenario.run().world.net.trace_lines()
    assert first == second
    assert first != scenario.run(seed=123).world.net.trace_lines()


def test_golden_trace_regression():
    frozen = (TESTDATA / "conditional_buy.trace").read_text()
    result = Scenario.load(str(SCENARIO_DIR / "conditional_buy.scn")).run()
    assert result.world.net.trace_lines() == frozen


def test_scenario_parse_error():
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"actions": [{"kind": "unknown_kind"}]}).run()


def _action(**changes):
    return lambda doc: doc["actions"][0].update(changes)


def _crash(node):
    return lambda doc: doc.setdefault("faults", []).append(
        {"kind": "crash_node", "node": node, "at_tick": 8})


def _validator(sidechain, index):
    return {"validator": {"sidechain": sidechain, "index": index}}


@pytest.mark.parametrize("edit", [
    _action(call={"contract": "no_such_contract", "function": "condBuy", "args": [5]}),
    _action(node="no_such_node"),
    _action(coordination=9),
    _crash({"multichain": "nope", "sidechain": "private:0x11"}),
    _crash(_validator("private:0x99", 1)),
    _crash({"coordination": 7}),
    _crash(_validator("private:0x11", 9)),
    _crash(_validator("private:0x11", 0)),
    lambda doc: doc["multichain_nodes"][0].update(
        member_indices={"private:0x11": 0}),
    lambda doc: doc["multichain_nodes"][0]["members"].append("private:0x99"),
    lambda doc: doc["contracts"][0].update(sidechain="private:0x99"),
    lambda doc: doc["contracts"][0].update(handler="no_such_handler"),
], ids=["contract", "node", "coordination", "fault-multichain",
        "fault-validator-sidechain", "fault-coordination",
        "fault-validator-index-9", "fault-validator-index-0",
        "member-index-0", "member-sidechain", "contract-sidechain",
        "contract-handler"])
def test_unknown_action_names_are_scenario_errors(edit, tmp_path):
    """Every name an action, a fault or a multichain node uses must be
    declared; a validator index runs from 1 to the sidechain's n."""
    doc = Scenario.load(str(SCENARIO_DIR / "conditional_buy.scn")).doc
    edit(doc)
    with pytest.raises(ScenarioError):
        Scenario.from_dict(doc).run()
    bad = tmp_path / "bad.scn"
    bad.write_text(yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["run", str(bad)])
    assert result.exit_code == 2, result.output


def test_sweep_cells_cover_all_roles():
    scenario = Scenario.load(str(SCENARIO_DIR / "fault_sweep.scn"))
    from xchain.scenario import build_sweep_cells
    cells = build_sweep_cells(
        scenario, ["crash_node", "remove_validator", "drop_message"])
    names = [c.name for c in cells]
    assert len(cells) >= 25
    assert any("orig:" in n for n in names)
    assert any("sub:" in n for n in names)
    assert any("view:" in n for n in names)
    assert any(n.startswith("drop:") for n in names)
    assert any(n.startswith("remove:") for n in names)


def test_atomic_swap_sweep_passes_every_cell():
    """atomic_swap's transaction has subordinate transactions but no
    view, so no cell drops a view_reply it never sends. The sweeps of
    scenarios whose first transaction fails, or that run further
    transactions beside it, pass every cell too: a cell judges the swept
    transaction alone."""
    from xchain.scenario import run_sweep
    report = run_sweep(Scenario.load(str(SCENARIO_DIR / "atomic_swap.scn")))
    names = [cell.name for cell, *_ in report.cells]
    assert "drop:subtx_ready" in names and "drop:view_reply" not in names
    assert [line for line in report.lines() if line.startswith("[FAIL]")] == []
    for name in ("nonlockable.scn", "conditional_buy_mismatch.scn",
                 "timeout_liveness.scn"):
        report = run_sweep(Scenario.load(str(SCENARIO_DIR / name)))
        assert [line for line in report.lines() if line.startswith("[FAIL]")] == [], name


def _late_submissions(extra_delay, count):
    """Delays the next ``count`` submissions after the commit is signed."""
    return FaultSpec(kind="delay_message", mtype="submit", at_step="orig:commit_signed",
                     extra_delay=extra_delay, count=count)


START, COMMIT, IGNORE = ("start", True), ("commit", True), ("ignore", True)


@pytest.mark.parametrize("fault,committed,submitted", [
    # from tick 8 on every submit_reply is dropped: the start's reply
    # arrives, the accepted commit's reply is lost; no ignore follows
    (FaultSpec(kind="drop_message", mtype="submit_reply", at_tick=8), True,
     [START, COMMIT]),
    # the commit lands after its submission timed out, before the ignore
    (_late_submissions(42, count=1), True, [START, COMMIT, ("ignore", False)]),
    # the ignore lands first and the late commit is rejected
    (_late_submissions(60, count=1), False, [START, IGNORE, ("commit", False)]),
    # both are still in flight when the ignore's submission times out
    (_late_submissions(120, count=2), True, [START, COMMIT, ("ignore", False)]),
    # neither lands: the record times out
    (FaultSpec(kind="drop_message", mtype="submit", at_step="orig:commit_signed"), False,
     [START]),
], ids=["commit-reply-lost", "commit-lands-late", "ignore-lands-first",
        "commit-and-ignore-late", "commit-and-ignore-lost"])
def test_handle_follows_coordination_record(fault, committed, submitted, monkeypatch):
    calls = []

    def spy(op):
        plain = getattr(CoordinationChain, op)

        def submit(self, *args):
            try:
                plain(self, *args)
            except CoordinationError:
                calls.append((op, False))
                raise
            calls.append((op, True))
        return submit

    for op in ("start", "commit", "ignore"):
        monkeypatch.setattr(CoordinationChain, op, spy(op))
    result = Scenario.load(str(SCENARIO_DIR / "conditional_buy.scn")).run(
        extra_faults=[fault])
    world = result.world
    assert not world.net.tick_limit_hit
    (handle,) = result.handles["purchase"]
    status = world.coordination[handle.coordination_ref].status_of(
        handle.crosschain_tx_id, handle.originating_sidechain_id)
    assert handle.outcome is not None and handle.committed is committed
    assert (status is EffectiveStatus.COMMITTED) is committed
    assert len(world.committed_contracts(handle.crosschain_tx_id)) == (2 if committed else 0)
    assert world.atomicity_ok(handle.crosschain_tx_id)
    assert calls == submitted


def test_locks_of_a_timed_out_transaction_finalize_at_the_global_timeout():
    """timeout_liveness's coordination chain has 4-tick blocks. Each
    lock of ``doomed`` is finalized by the tick at which its entry times
    out on that chain, plus the resolve timer lag."""
    result = Scenario.load(str(SCENARIO_DIR / "timeout_liveness.scn")).run()
    world = result.world
    (handle,) = result.handles["doomed"]
    tx_id = handle.crosschain_tx_id
    chain = world.coordination[handle.coordination_ref]
    deadline = (chain.timeout_tick(tx_id, handle.originating_sidechain_id)
                + world.config.resolve_timer_lag)
    assert deadline == 18
    assert handle.failure_reason == "ready-timeout"
    finalized = world.finalize_decisions(tx_id)
    assert len(finalized) == len(world.participating_contracts(tx_id)) == 2
    assert all(entry["tick"] <= deadline for entry in finalized)


@pytest.mark.parametrize("name", ["conditional_buy.scn", "atomic_swap.scn"])
def test_hop_latency_follows_from_the_two_endpoints(name, monkeypatch):
    """A message between validators of one sidechain takes intra_latency,
    every other message cross_latency."""
    sent = []
    plain = SimNet.send

    def spy(net, msg, latency=None):
        sent.append((msg, latency))
        plain(net, msg, latency)

    monkeypatch.setattr(SimNet, "send", spy)
    world = Scenario.load(str(SCENARIO_DIR / name)).run().world
    chain_of = {validator.node_id: chain_id
                for chain_id, sidechain in world.sidechains.items()
                for validator in sidechain.validators}
    intra, cross = world.config.intra_latency, world.config.cross_latency
    assert intra != cross
    for msg, latency in sent:
        same = msg.sender in chain_of and chain_of[msg.sender] == chain_of.get(msg.recipient)
        assert latency == (intra if same else cross), msg
    assert {latency for _, latency in sent} == {intra, cross}


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_event_log_views_follow_the_trace(name):
    """audit_log lists the lock and finalize trace lines, and the
    per-transaction queries, which read the index, equal a scan of the
    whole trace."""
    world = Scenario.load(str(SCENARIO_DIR / name)).run().world
    trace = world.net.trace
    kinds = {"lock": "mined", "finalize": "finalize"}
    lines = [rec for rec in trace if rec.kind in kinds]
    assert len(world.audit_log) == len(lines)
    for rec, entry in zip(lines, world.audit_log):
        assert set(entry) == {"kind", "tick", "tx", "sidechain", "contract", "decision"}
        assert (entry["kind"], entry["tick"]) == (kinds[rec.kind], rec.tick)
        assert isinstance(entry["tx"], CrosschainTxId)
        assert isinstance(entry["sidechain"], SidechainId)
        decision = entry["decision"] or "locked"
        assert rec.reason == f"{decision}:{entry['contract'].hex()[:8]}"
    assert world.handles
    for handle in world.handles:
        tx_id = handle.crosschain_tx_id
        locks = [rec for rec in trace if rec.kind == "lock" and rec.tx == tx_id]
        finals = [rec for rec in trace if rec.kind == "finalize" and rec.tx == tx_id]
        decisions = [(rec.tick, rec.contract, rec.reason.split(":")[0]) for rec in finals]
        assert [(entry["tick"], (entry["sidechain"], entry["contract"]), entry["decision"])
                for entry in world.finalize_decisions(tx_id)] == decisions
        participants = {rec.contract for rec in locks}
        assert world.participating_contracts(tx_id) == participants
        assert world.committed_contracts(tx_id) == \
            {contract for _, contract, decision in decisions if decision == "commit"}
        final = {contract: decision for _, contract, decision in decisions}
        assert world.atomicity_ok(tx_id) == (
            len({final.get(contract) for contract in participants}) <= 1)


# --- CLI ----------------------------------------------------------------------------------

def test_cli_run_pass_and_trace_out(tmp_path):
    runner = CliRunner()
    trace_file = tmp_path / "run.trace"
    result = runner.invoke(main, [
        "run", str(SCENARIO_DIR / "conditional_buy.scn"),
        "--trace-out", str(trace_file)])
    assert result.exit_code == 0, result.output
    assert "[PASS]" in result.output
    assert trace_file.read_text().startswith("tick=")


def test_cli_run_assertion_failure_exit_code(tmp_path):
    # force a failing assertion by pointing the mismatch scenario at a
    # doctored copy whose expectation is inverted
    doc = (SCENARIO_DIR / "conditional_buy.scn").read_text().replace(
        "value: 95", "value: 1")
    bad = tmp_path / "bad.scn"
    bad.write_text(doc)
    result = CliRunner().invoke(main, ["run", str(bad)])
    assert result.exit_code == 1
    assert "[FAIL]" in result.output


def _set(path, value):
    """An edit of the conditional_buy document: the key at path, a
    sequence of mapping keys and list indices, becomes value."""
    def edit(doc):
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    return edit


@pytest.mark.parametrize("edit", [
    None,
    _set(["seed"], "abc"),
    _set(["max_ticks"], "forever"),
    _set(["sidechains", 0, "validators"], "four"),
    _set(["sidechains", 0, "id"], "private:zz"),
    _set(["sidechains", 0, "balances"], {"alice": "lots"}),
    _set(["contracts", 0, "storage"], {"one": 1}),
    _set(["actions", 0, "at"], "soon"),
    lambda doc: doc["assertions"].append(
        {"kind": "trace_contains_reason", "reason": "x", "count_at_least": "many"}),
    lambda doc: doc["actions"].append(
        {"at": 0, "kind": "crosschain_view", "node": "nodeA", "coordination": 1,
         "call": {"contract": "oracle", "function": "rate"},
         "policy": "assume-comitted"}),
    _set(["config"], {"locked_view_policy": 3}),
], ids=["broken-yaml", "seed", "max_ticks", "validators", "sidechain-id",
        "balance", "storage-key", "action-at", "assertion-count", "view-policy",
        "config-policy"])
def test_cli_run_parse_error_exit_code(edit, tmp_path):
    """Malformed YAML, a non-integer where the format wants an integer,
    and a locked-view policy that is not one of its three spellings are
    parse errors (exit 2) that name the bad value, not tracebacks or a
    run."""
    broken = tmp_path / "broken.scn"
    if edit is None:
        broken.write_text("]: not yaml [")
    else:
        doc = yaml.safe_load((SCENARIO_DIR / "conditional_buy.scn").read_text())
        edit(doc)
        broken.write_text(yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["run", str(broken)])
    assert result.exit_code == 2, result.output
    assert "parse error" in result.output


@pytest.mark.parametrize("spelling, policy", [
    ("fail", LockedViewPolicy.FAIL_IF_LOCKED),
    ("assume-ignored", LockedViewPolicy.ASSUME_IGNORED),
    ("assume-committed", LockedViewPolicy.ASSUME_COMMITTED),
])
def test_locked_view_policy_spellings(spelling, policy, monkeypatch):
    """The config key and the CLI flag take the same three spellings,
    and each sets the world's policy."""
    path = SCENARIO_DIR / "conditional_buy.scn"
    doc = yaml.safe_load(path.read_text())
    doc["config"] = {"locked_view_policy": spelling}
    assert Scenario.from_dict(doc).run().world.config.locked_view_policy is policy

    seen = []
    original = Scenario.run

    def spy(self, **kwargs):
        result = original(self, **kwargs)
        seen.append(result.world.config.locked_view_policy)
        return result

    monkeypatch.setattr(Scenario, "run", spy)
    result = CliRunner().invoke(main, ["run", str(path), "--locked-view-policy", spelling])
    assert result.exit_code == 0, result.output
    assert seen == [policy]


def test_cli_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("XCHAIN_SIM_SEED", "99")
    trace_a = tmp_path / "a.trace"
    CliRunner().invoke(main, ["run", str(SCENARIO_DIR / "conditional_buy.scn"),
                              "--trace-out", str(trace_a)])
    monkeypatch.delenv("XCHAIN_SIM_SEED")
    trace_b = tmp_path / "b.trace"
    CliRunner().invoke(main, ["run", str(SCENARIO_DIR / "conditional_buy.scn"),
                              "--seed", "99", "--trace-out", str(trace_b)])
    assert trace_a.read_text() == trace_b.read_text()


def test_cli_seed_env_not_an_integer(monkeypatch):
    monkeypatch.setenv("XCHAIN_SIM_SEED", "xyz")
    for command in ("run", "sweep"):
        result = CliRunner().invoke(
            main, [command, str(SCENARIO_DIR / "conditional_buy.scn")])
        assert result.exit_code == 2, result.output
        assert "XCHAIN_SIM_SEED" in result.output and "'xyz'" in result.output


def test_cli_trace_diff(tmp_path):
    runner = CliRunner()
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    runner.invoke(main, ["run", str(SCENARIO_DIR / "conditional_buy.scn"),
                         "--trace-out", str(a)])
    runner.invoke(main, ["run", str(SCENARIO_DIR / "conditional_buy.scn"),
                         "--trace-out", str(b)])
    same = runner.invoke(main, ["trace-diff", str(a), str(b)])
    assert same.exit_code == 0
    assert "identical" in same.output
    c = tmp_path / "c.trace"
    runner.invoke(main, ["run", str(SCENARIO_DIR / "conditional_buy.scn"),
                         "--seed", "5", "--trace-out", str(c)])
    diff = runner.invoke(main, ["trace-diff", str(a), str(c)])
    assert diff.exit_code == 1


@pytest.mark.parametrize("line", [
    "not a trace line",
    "tick=1 node=n kind=step reason=r",
    "tick=1 node=n kind=step reason=r digest=- extra",
    "tick=1 node=n kind=step reason=r digest=- tick=2",
], ids=["no-fields", "missing-field", "bare-word", "repeated-field"])
def test_cli_trace_diff_schema_mismatch(tmp_path, line):
    good = tmp_path / "good.trace"
    good.write_text("tick=1 node=n kind=step reason=r digest=-\n")
    bad = tmp_path / "bad.trace"
    bad.write_text(line + "\n")
    result = CliRunner().invoke(main, ["trace-diff", str(good), str(bad)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"schema mismatch in {bad}: {line}" in result.output
    assert CliRunner().invoke(main, ["trace-diff", str(good), str(good)]).exit_code == 0


def test_cli_list_scenarios():
    result = CliRunner().invoke(main, ["list-scenarios", "--dir",
                                       str(SCENARIO_DIR)])
    assert result.exit_code == 0
    for name in ALL_SCENARIOS:
        assert name in result.output


def test_cli_sweep_small():
    result = CliRunner().invoke(main, [
        "sweep", str(SCENARIO_DIR / "fault_sweep.scn"),
        "--fault-kind", "drop_message"])
    assert result.exit_code == 0, result.output
    assert "cells passed" in result.output


def _derived_material(world):
    """Every key and address a world derives while it is built."""
    return {
        "sidechains": {
            chain_id: (sc.group_public_key, sc.share_publics,
                       [v.key_share for v in sc.validators],
                       sorted(sc.state.contracts))
            for chain_id, sc in world.sidechains.items()},
        "accounts": {name: mn.account.address
                     for name, mn in world.multichain_nodes.items()},
    }


def test_sweep_worlds_derive_what_separately_loaded_scenarios_do():
    """Worlds built from one Scenario, as run_sweep builds them, read
    keys and addresses memoized per process; they equal a cold
    derivation, and rotating a key in one world leaves the others'."""
    from xchain import accounts, engine, sidechain
    from xchain.scenario import build_sweep_cells

    path = str(SCENARIO_DIR / "fault_sweep.scn")
    scenario = Scenario.load(path)
    cells = build_sweep_cells(scenario, ["crash_node"])[:2]
    shared = [scenario.run(extra_faults=cell.faults).world for cell in cells]
    for memo in (engine._dealer_keys, accounts._labelled_key,
                 sidechain._contract_address):
        memo.cache_clear()
    separate = [Scenario.load(path).run(extra_faults=cell.faults).world
                for cell in cells]
    for world in shared + separate:
        assert _derived_material(world) == _derived_material(separate[0])

    chain_id = next(iter(shared[0].sidechains))
    assert shared[0].sidechains[chain_id].share_publics \
        is not shared[1].sidechains[chain_id].share_publics
    old_key = shared[0].sidechains[chain_id].group_public_key
    shared[0].rekey_sidechain(chain_id, seed=99)
    assert shared[0].sidechains[chain_id].group_public_key != old_key
    assert _derived_material(shared[1]) == _derived_material(separate[0])


# --- YAML loaders ---------------------------------------------------------------

LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__,
                             reason="PyYAML is built without libyaml")
LOADERS = [pytest.param("SafeLoader", id="python"),
           pytest.param("CSafeLoader", id="libyaml", marks=LIBYAML)]


def test_scenarios_load_with_libyaml_where_present():
    from xchain import scenario
    want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert scenario._YAML_LOADER is want


@LIBYAML
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_yaml_loaders_agree_on_shipped_scenarios(name):
    text = (SCENARIO_DIR / name).read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", [
    "]: not yaml [",
    "name: x\nseed: [1, 2\n",
    "name: !!python/object:os.system {}\n",
    "name: !!python/name:os.system ''\n",
], ids=["flow", "unclosed", "python-object", "python-name"])
def test_bad_yaml_is_a_scenario_error_under_each_loader(loader, text, tmp_path, monkeypatch):
    from xchain import scenario
    monkeypatch.setattr(scenario, "_YAML_LOADER", getattr(yaml, loader))
    path = tmp_path / "bad.scn"
    path.write_text(text)
    with pytest.raises(ScenarioError, match="cannot parse"):
        Scenario.load(str(path))
