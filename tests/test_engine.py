import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from xchain.coordination import EffectiveStatus
from xchain.engine import (
    CallSpec,
    EngineError,
    World,
    WorldConfig,
    expected_crash_outcome,
)
from xchain import engine as eng
from xchain.sidechain import (
    VIEW_WRITE,
    LockHolder,
    LockedViewPolicy,
    ProvisionalOverlay,
)
from xchain.simnet import FaultSpec, Message, payload_digest
from xchain.wire import (
    CrosschainTxId,
    SidechainId,
    TxType,
    encode_call,
    sign_tx,
    tx_hash,
)
from xchain.accounts import AccountKey

from world_fixtures import (
    COORD_ID, SC1, SC2, SC3, build_purchase, conditional_buy_world,
    nested_leg_world,
)


def drain(world, max_ticks=20000):
    world.run(max_ticks=max_ticks)
    assert not world.net.tick_limit_hit


# --- happy paths -------------------------------------------------------------------

def test_conditional_buy_commits():
    world, mn, ref, contracts = conditional_buy_world()
    tx = build_purchase(world, mn, ref, contracts)
    # the dry-run recorded the call graph: root, its oracle view, its buy
    shape = [(n.tx_type, n.execution_sidechain_id) for n in tx.walk()]
    assert shape == [(TxType.ORIGINATING, SC1), (TxType.SUBORDINATE_VIEW, SC2),
                     (TxType.SUBORDINATE_TX, SC3)]
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.committed
    state3 = world.sidechains[SC3].state
    assert state3.contract_at(contracts["commodity"]).storage[1] == 5
    assert world.coordination[ref].status_of(
        tx.crosschain_tx_id, SC1) is EffectiveStatus.COMMITTED
    assert world.atomicity_ok(tx.crosschain_tx_id)
    # both the control and commodity contracts committed
    assert len(world.committed_contracts(tx.crosschain_tx_id)) == 2


def test_high_rate_builds_tree_without_buy():
    world, mn, ref, contracts = conditional_buy_world(rate=150)
    tx = build_purchase(world, mn, ref, contracts)
    kinds = [node.tx_type for node in tx.walk()]
    assert TxType.SUBORDINATE_TX not in kinds  # no buy branch recorded
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.committed
    assert world.sidechains[SC3].state.contract_at(
        contracts["commodity"]).storage.get(1, 0) == 0


def test_decision_agreement_across_nodes():
    world, mn, ref, contracts = conditional_buy_world()
    tx = build_purchase(world, mn, ref, contracts)
    world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    decisions = world.finalize_decisions(tx.crosschain_tx_id)
    finalized = [(rec["sidechain"], rec["contract"]) for rec in decisions]
    participants = world.participating_contracts(tx.crosschain_tx_id)
    # the sidechain state is shared: only the first resolver finalizes
    assert participants and len(finalized) == len(participants)
    assert set(finalized) == participants
    terminal = world.coordination[ref].status_of(tx.crosschain_tx_id, SC1)
    expected = "commit" if terminal is EffectiveStatus.COMMITTED else "ignore"
    assert [rec["decision"] for rec in decisions] == [expected] * len(decisions)


def test_atomicity_queries_read_one_transactions_records():
    world = World()
    tx, other = CrosschainTxId(1), CrosschainTxId(2)
    a, b = (SC1, bytes(20)), (SC2, bytes([1]) * 20)

    def record(kind, decision, contract, tx_id=tx):
        world.net.record("v", kind, f"{decision}:{contract[1].hex()[:8]}",
                         tx=tx_id, contract=contract)

    record("lock", "locked", a)
    record("lock", "locked", b)
    record("finalize", "ignore", a, tx_id=other)
    assert world.participating_contracts(tx) == {a, b}
    assert world.atomicity_ok(tx)  # both still locked: not yet resolved
    record("finalize", "commit", a)
    assert not world.atomicity_ok(tx)  # b still locked
    record("finalize", "ignore", b)
    assert not world.atomicity_ok(tx)
    assert world.committed_contracts(tx) == {a}
    assert [(rec["sidechain"], rec["decision"]) for rec in world.finalize_decisions(tx)] == \
        [(SC1, "commit"), (SC2, "ignore")]
    assert world.atomicity_ok(other) and not world.participating_contracts(other)
    assert world.atomicity_ok(CrosschainTxId(3))


# --- pre-start validation failures ------------------------------------------------------

def test_permission_denied():
    world, mn, ref, contracts = conditional_buy_world(
        tx_allowed={AccountKey.from_label("someone-else").address})
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.outcome == ("failed", eng.PERMISSION_DENIED)
    assert not world.coordination[ref].has_entry(tx.crosschain_tx_id, SC1)


def test_missing_sidechain_fails_before_start():
    world, mn, ref, contracts = conditional_buy_world()
    slim = world.add_multichain_node("slim", [SC1, SC2])  # no member on SC3
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("slim", tx)
    drain(world)
    assert handle.outcome == ("failed", eng.MISSING_SIDECHAIN)
    assert not world.coordination[ref].has_entry(tx.crosschain_tx_id, SC1)


def test_untrusted_coordination_rejected():
    world = World(seed=3)
    coord = world.add_coordination_chain(COORD_ID)
    ref = (COORD_ID, coord.contract_address)
    other = world.add_coordination_chain(SidechainId(2))
    other_ref = (SidechainId(2), other.contract_address)
    world.add_sidechain(SC1, validators=4, fault_tolerance=1,
                        trusted_coordination={ref})
    world.add_multichain_node("nodeA", [SC1])
    cell = world.sidechains[SC1].state.deploy("cell", lockable=True)
    tx = world.build_crosschain_tx(
        "nodeA", CallSpec(SC1, cell, encode_call("put", 1, 2)),
        timeout_blocks=10, coordination_ref=other_ref)
    handle = world.submit_crosschain_tx(
        "nodeA", sign_tx(tx, world.multichain_nodes["nodeA"].account))
    drain(world)
    assert handle.outcome == ("failed", eng.UNTRUSTED_COORDINATION)


def test_pubkey_unavailable():
    world, mn, ref, contracts = conditional_buy_world()
    world.coordination[ref].pubkeys.pop(SC3)  # SC3's key never published
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.outcome == ("failed", eng.PUBKEY_UNAVAILABLE)


def test_common_signer_violation_rejected():
    world, mn, ref, contracts = conditional_buy_world()
    tx = world.build_crosschain_tx(
        "nodeA", CallSpec(SC1, contracts["control"], encode_call("condBuy", 5)),
        timeout_blocks=30, coordination_ref=ref)
    mallory = AccountKey.from_label("mallory")
    foreign = sign_tx(tx.subordinates[0], mallory)
    spliced = dataclasses.replace(
        tx, subordinates=(foreign,) + tx.subordinates[1:])
    signed = sign_tx(spliced, mn.account)
    handle = world.submit_crosschain_tx("nodeA", signed)
    drain(world)
    assert handle.outcome == ("failed", eng.SIGNER_MISMATCH)


def test_timeout_horizon_refused_by_validators():
    world, mn, ref, contracts = conditional_buy_world(max_lock_horizon=5)
    tx = build_purchase(world, mn, ref, contracts, timeout_blocks=30)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.outcome == ("failed", eng.START_SIGNING_FAILED)
    refusals = [r for r in world.net.trace
                if r.kind == "step" and r.reason == "val:refuse_start"]
    assert refusals


def test_subordinate_chain_lock_horizon_refusal():
    """Only the executing sidechain's validators find the global timeout
    unacceptable: the transaction starts, then fails at the subordinate
    mining round and resolves to ignored."""
    world, mn, ref, contracts = conditional_buy_world()
    world.sidechains[SC3].max_lock_horizon = 5
    tx = build_purchase(world, mn, ref, contracts, timeout_blocks=30)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.outcome == ("failed", eng.SUBORDINATE_FAILED)
    assert any(r.reason == eng.TIMEOUT_UNACCEPTABLE for r in world.net.trace
               if r.kind == "failure")
    assert world.coordination[ref].status_of(
        tx.crosschain_tx_id, SC1) is EffectiveStatus.IGNORED
    assert world.atomicity_ok(tx.crosschain_tx_id)


def test_view_against_inactive_transaction_refused():
    """A subordinate view whose crosschain transaction is already
    terminal on the coordination contract is refused."""
    world, mn, ref, contracts = conditional_buy_world()
    tx = build_purchase(world, mn, ref, contracts)
    view = tx.subordinates[0]
    chain = world.coordination[ref]
    start = world.derive_message(eng.MessageKind.START, tx)
    sidechain = world.sidechains[SC1]
    payload = eng.encode_message(start)
    sig = world.scheme.combine(
        [world.scheme.sign_share(v.key_share, payload)
         for v in sidechain.validators[:2]], sidechain.threshold_config)
    chain.start(start, sig)
    ignore = world.derive_message(eng.MessageKind.IGNORE, tx)
    payload = eng.encode_message(ignore)
    sig = world.scheme.combine(
        [world.scheme.sign_share(v.key_share, payload)
         for v in sidechain.validators[:2]], sidechain.threshold_config)
    chain.ignore(ignore, sig)

    replies = []

    class Probe:
        node_id = "probe"

        def on_message(self, msg):
            replies.append(msg)

        def on_timer(self, tag):
            pass

    world.net.register("probe", Probe())
    world.net.send(Message("probe", mn.members[SC2].node_id, "process_view",
                           {"tx": view, "multichain": "nodeA"}, req_id=777))
    drain(world)
    assert replies and replies[0].body == {
        "ok": False, "reason": eng.TX_NOT_ACTIVE}


# --- per-sidechain admission ---------------------------------------------------------------

_OUTSIDER = {AccountKey.from_label("someone-else").address}


@pytest.mark.parametrize("chain,attr,value,reason,member_trace", [
    (SC2, "view_allowed", _OUTSIDER, eng.PERMISSION_DENIED,
     ["view:received", "permission-denied"]),
    (SC3, "tx_allowed", _OUTSIDER, eng.SUBORDINATE_FAILED,
     ["sub:received", "permission-denied", "sub:check_forwarded"]),
    (SC2, "trusted_coordination", set(), eng.UNTRUSTED_COORDINATION,
     ["view:received", "view:permission_checked", "untrusted-coordination"]),
    (SC3, "trusted_coordination", set(), eng.SUBORDINATE_FAILED,
     ["sub:received", "sub:permission_checked", "untrusted-coordination",
      "sub:check_forwarded"]),
], ids=["view-permission", "tx-permission", "view-trust", "sub-trust"])
def test_admission_restricted_on_one_sidechain(chain, attr, value, reason,
                                               member_trace):
    """A restriction on one view or subordinate sidechain refuses the
    transaction after it started: its member traces the checks it
    passed and the refusal, and the transaction resolves to ignored."""
    world, mn, ref, contracts = conditional_buy_world()
    setattr(world.sidechains[chain], attr, value)
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.outcome == ("failed", reason)
    assert world.coordination[ref].status_of(
        tx.crosschain_tx_id, SC1) is EffectiveStatus.IGNORED
    assert world.atomicity_ok(tx.crosschain_tx_id)
    member = mn.members[chain].node_id
    assert [r.reason for r in world.net.trace if r.node == member
            and r.kind in ("step", "failure")] == member_trace


# --- failure exits ---------------------------------------------------------------------------

def _foreign_lock(world, ref, chain, address):
    world.sidechains[chain].state.lock(
        address, LockHolder(crosschain_tx_id=CrosschainTxId(0xF00),
                            originating_sidechain_id=SC2, coordination_ref=ref),
        ProvisionalOverlay())


def _corrupt_peer_shares(world, mn, chain):
    for validator in world.sidechains[chain].validators:
        if validator is not mn.members[chain]:
            world.net.inject(FaultSpec(kind="corrupt_share",
                                       node=validator.node_id, at_tick=0))


def _lock_control_at_inclusion(world, mn, ref, contracts):
    """A racing holder takes the control contract after SC1's peers
    accepted the mining request, as their replies arrive."""
    clean, clean_mn, clean_ref, clean_contracts = conditional_buy_world()
    clean.submit_crosschain_tx(
        "nodeA", build_purchase(clean, clean_mn, clean_ref, clean_contracts))
    drain(clean)
    executed = next(r.tick for r in clean.net.trace if r.reason == "orig:executed")
    world.net.call_soon(
        lambda: _foreign_lock(world, ref, SC1, contracts["control"]),
        delay=executed + 2 * world.config.intra_latency)


# setup(world, mn, ref, contracts) -> the submitting node's name or None;
# the failure records as (member chain, reason, detail), where a None
# detail is a record without payload; the error reply a member sends as
# (member chain, message type, reason)
_FAILURE_EXITS = [
    pytest.param(
        lambda w, mn, ref, c: setattr(w.sidechains[SC1], "tx_allowed", _OUTSIDER),
        [(SC1, eng.PERMISSION_DENIED, "")], None, id="orig-admission"),
    pytest.param(
        lambda w, mn, ref, c: w.add_multichain_node("slim", [SC1, SC2]) and "slim",
        [(SC1, eng.MISSING_SIDECHAIN, SC3.short())], None, id="orig-coverage"),
    pytest.param(
        lambda w, mn, ref, c: setattr(w.sidechains[SC1], "max_lock_horizon", 5),
        [(SC1, eng.START_SIGNING_FAILED, "")], None, id="orig-signing"),
    pytest.param(
        lambda w, mn, ref, c: w.sidechains[SC2].state.contract_at(
            c["oracle"]).storage.update({0: 150}),
        [(SC1, "call-mismatch", "call-mismatch: only 1 of 2 signed calls emitted")],
        None, id="orig-execution"),
    pytest.param(
        lambda w, mn, ref, c: w.net.inject(FaultSpec(
            kind="drop_message", mtype="mine_reply", at_step="orig:executed")),
        [(SC1, eng.MINING_REJECTED, "")], None, id="orig-mining"),
    pytest.param(
        _lock_control_at_inclusion,
        [(SC1, "lock-contention", "")], None, id="orig-lock-at-inclusion"),
    pytest.param(
        lambda w, mn, ref, c: _foreign_lock(w, ref, SC2, c["oracle"]),
        [(SC2, "view-of-locked-contract", None),
         (SC1, "view-of-locked-contract", "")],
        (SC2, "view_reply", "view-of-locked-contract"), id="view-execution"),
    pytest.param(
        lambda w, mn, ref, c: _corrupt_peer_shares(w, mn, SC2),
        [(SC2, eng.VIEW_SIGNING_FAILED, None), (SC1, eng.VIEW_SIGNING_FAILED, "")],
        (SC2, "view_reply", eng.VIEW_SIGNING_FAILED), id="view-signing"),
    pytest.param(
        lambda w, mn, ref, c: _foreign_lock(w, ref, SC3, c["commodity"]),
        [(SC3, "lock-contention", None),
         (SC1, eng.SUBORDINATE_FAILED, "lock-contention")],
        (SC3, "subtx_error", "lock-contention"), id="sub-execution"),
    pytest.param(
        lambda w, mn, ref, c: setattr(w.sidechains[SC3], "max_lock_horizon", 5),
        [(SC3, eng.TIMEOUT_UNACCEPTABLE, None),
         (SC1, eng.SUBORDINATE_FAILED, eng.TIMEOUT_UNACCEPTABLE)],
        (SC3, "subtx_error", eng.TIMEOUT_UNACCEPTABLE), id="sub-mining"),
    pytest.param(
        lambda w, mn, ref, c: _corrupt_peer_shares(w, mn, SC3),
        [(SC3, eng.READY_SIGNING_FAILED, None),
         (SC1, eng.SUBORDINATE_FAILED, eng.READY_SIGNING_FAILED)],
        (SC3, "subtx_error", eng.READY_SIGNING_FAILED), id="sub-signing"),
]


@pytest.mark.parametrize("setup,failures,error_reply", _FAILURE_EXITS)
def test_failure_exit_records(setup, failures, error_reply):
    """Each failure exit of the three flows records its reason once. The
    originating flow's record carries the detail as its payload: the
    ledger's message for a failed execution, the missing sidechain, the
    subordinate's reason, and nothing more for any other exit,
    including a lock refused at inclusion. A subordinate or view
    member's record carries no payload; its reason travels in the error
    it sends."""
    world, mn, ref, contracts = conditional_buy_world()
    tx = build_purchase(world, mn, ref, contracts)
    submitter = setup(world, mn, ref, contracts) or "nodeA"
    handle = world.submit_crosschain_tx(submitter, tx)
    drain(world)
    members = world.multichain_nodes[submitter].members
    assert [(r.node, r.reason, r.digest) for r in world.net.trace
            if r.kind == "failure"] == [
        (members[chain].node_id, reason, payload_digest(detail))
        for chain, reason, detail in failures]
    assert handle.outcome == ("failed", failures[-1][1])
    assert world.atomicity_ok(tx.crosschain_tx_id)
    sent = [(r.node, r.reason, r.digest) for r in world.net.trace
            if r.kind == "send" and r.reason in ("subtx_error", "view_reply")]
    if error_reply is None:
        assert all(mtype == "view_reply" for _, mtype, _ in sent)
        return
    chain, mtype, reason = error_reply
    body = {"ok": False, "reason": reason}
    if mtype == "subtx_error":
        sub = next(n for n in tx.walk() if n.tx_type is TxType.SUBORDINATE_TX)
        body = {"ok": False, "tx_hash": tx_hash(sub), "reason": reason}
    node = members[chain].node_id
    assert [s for s in sent if s[0] == node] == [(node, mtype, payload_digest(body))]


# --- locking behaviour ----------------------------------------------------------------

def test_lock_contention_between_transactions():
    world, mn, ref, contracts = conditional_buy_world()
    state3 = world.sidechains[SC3].state
    foreign_holder = LockHolder(
        crosschain_tx_id=CrosschainTxId(0xF00),
        originating_sidechain_id=SC2, coordination_ref=ref)
    state3.lock(contracts["commodity"], foreign_holder, ProvisionalOverlay())
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.outcome == ("failed", eng.SUBORDINATE_FAILED)
    assert world.coordination[ref].status_of(
        tx.crosschain_tx_id, SC1) is EffectiveStatus.IGNORED
    # the foreign lock is untouched; our own locks were released
    assert state3.locked_by(contracts["commodity"]) == foreign_holder
    assert world.sidechains[SC1].state.locked_by(contracts["control"]) is None
    assert world.atomicity_ok(tx.crosschain_tx_id)


def test_duplicate_check_messages_are_idempotent():
    world, mn, ref, contracts = conditional_buy_world()
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.committed
    # re-deliver a check to every node: nothing changes
    before = world.sidechains[SC3].state.storage_dump(contracts["commodity"])
    for sidechain in world.sidechains.values():
        for validator in sidechain.validators:
            validator.on_message(Message(
                "test", validator.node_id, "check_coordination",
                {"tx_id": tx.crosschain_tx_id, "orig_id": SC1, "forward": False}))
    drain(world)
    assert world.sidechains[SC3].state.storage_dump(contracts["commodity"]) == before


def test_timer_on_unknown_context_is_noop():
    world, mn, ref, contracts = conditional_buy_world()
    validator = world.sidechains[SC1].validator(2)
    validator.on_timer(("resolve", (CrosschainTxId(123), SC1)))  # no context
    assert not validator.contexts


def test_early_check_rearms_until_past_timeout():
    """A check that lands while the transaction is still STARTED keeps
    the context alive and re-arms the local timer; the node resolves
    only once the coordination chain passes the timeout block."""
    world, mn, ref, contracts = conditional_buy_world()
    # after the start is accepted, every further submission vanishes:
    # neither commit nor ignore can reach the contract
    world.net.inject(FaultSpec(kind="drop_message", mtype="submit",
                               at_step="orig:start_submitted"))
    tx = build_purchase(world, mn, ref, contracts, timeout_blocks=50)
    world.submit_crosschain_tx("nodeA", tx)

    key = (tx.crosschain_tx_id, SC1)
    validator = world.sidechains[SC1].validator(2)

    def early_check():
        if key in validator.contexts:
            validator._resolve_context(key)
            assert key in validator.contexts  # still STARTED: kept
    world.net.call_soon(early_check, delay=120)
    world.run(max_ticks=20000)
    assert key not in validator.contexts  # resolved after the timeout
    status = world.coordination[ref].status_of(tx.crosschain_tx_id, SC1)
    assert status is EffectiveStatus.TIMED_OUT
    assert not world.committed_contracts(tx.crosschain_tx_id)
    assert world.atomicity_ok(tx.crosschain_tx_id)


# --- transaction building ---------------------------------------------------------------

def test_builder_allocates_nonces_in_emission_order():
    """Two legs of one call to the same sidechain take consecutive
    nonces in the order the call emits them, and the tree commits."""
    world = World(seed=5)
    coord = world.add_coordination_chain(COORD_ID)
    ref = (COORD_ID, coord.contract_address)
    for sc in (SC1, SC2):
        world.add_sidechain(sc, validators=4, fault_tolerance=1)
    mn = world.add_multichain_node("nodeA", [SC1, SC2])
    state2 = world.sidechains[SC2].state
    market_a = state2.deploy("market_stub", lockable=True)
    market_b = state2.deploy("market_stub", lockable=True)
    one = world.sidechains[SC1].state.deploy("contract_one", lockable=True, storage={
        0: SC2.value, 1: int.from_bytes(market_a, "big"),
        2: SC2.value, 3: int.from_bytes(market_b, "big")})
    tx = world.build_crosschain_tx(
        "nodeA", CallSpec(SC1, one, encode_call("foo")),
        timeout_blocks=30, coordination_ref=ref)
    assert tx.nonce == 0
    assert [(leg.tx_type, leg.target_sidechain_id, leg.to, leg.data, leg.nonce)
            for leg in tx.subordinates] == [
        (TxType.SUBORDINATE_TX, SC2, market_a, encode_call("buy"), 0),
        (TxType.SUBORDINATE_TX, SC2, market_b, encode_call("sell"), 1)]
    handle = world.submit_crosschain_tx("nodeA", sign_tx(tx, mn.account))
    drain(world)
    assert handle.committed
    assert state2.contract_at(market_a).storage[0] == 1
    assert state2.contract_at(market_b).storage[1] == 1
    assert state2.expected_nonce(mn.account.address) == 2


def test_nested_leg_commits():
    """One leg of two nested subordinate transactions: the originating
    coordinator waits for both readies before it commits."""
    world, handle, contracts = nested_leg_world()
    drain(world)
    assert handle.committed
    assert world.sidechains[SC3].state.contract_at(contracts["cell"]).storage[1] == 5
    assert len(world.committed_contracts(handle.crosschain_tx_id)) == 3
    assert world.atomicity_ok(handle.crosschain_tx_id)


def test_nested_leg_refusal_fails_on_arrival():
    """SC2 refuses the leg's first transaction, so the child on SC3 never
    runs: the originating coordinator fails as the error arrives (tick
    16), not at the global deadline (tick 310), and names the refusal
    rather than the ready that never comes."""
    world, handle, _ = nested_leg_world(middle_tx_allowed=set())
    drain(world)
    assert handle.failure_reason == eng.SUBORDINATE_FAILED
    failures = [(r.tick, r.node, r.reason) for r in world.net.trace
                if r.kind == "failure"]
    assert failures == [(13, "sc22:v1", eng.PERMISSION_DENIED),
                        (16, "sc11:v1", eng.SUBORDINATE_FAILED)]
    assert not world.committed_contracts(handle.crosschain_tx_id)
    assert world.atomicity_ok(handle.crosschain_tx_id)


def test_nested_leg_trace_independent_of_hash_seed():
    tests = Path(__file__).parent
    code = ("import sys\n"
            "from world_fixtures import nested_leg_world\n"
            "world, _, _ = nested_leg_world(middle_tx_allowed=set())\n"
            "world.run()\n"
            "sys.stdout.write(world.net.trace_lines())\n")
    traces = []
    for hash_seed in ("0", "9"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
        traces.append(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=120).stdout)
    assert traces[0] and traces[0] == traces[1]


# --- subordinate views ------------------------------------------------------------------

def _chained_world(depth=3):
    world = World(seed=9)
    coord = world.add_coordination_chain(COORD_ID)
    ref = (COORD_ID, coord.contract_address)
    chains = [SidechainId.private(0x41 + i) for i in range(depth)]
    for sc in chains:
        world.add_sidechain(sc, validators=4, fault_tolerance=1)
    world.add_multichain_node("nodeA", chains)
    addrs = []
    for i, sc in enumerate(reversed(chains)):
        # build from the tail: each contract points at the previous one
        state = world.sidechains[sc].state
        storage = {2: (i + 1) * 100}
        if addrs:
            prev_chain, prev_addr = addrs[-1]
            storage[0] = prev_chain.value
            storage[1] = int.from_bytes(prev_addr, "big")
        addrs.append((sc, state.deploy("chained_reader", storage=storage)))
    head_chain, head_addr = addrs[-1]
    return world, ref, head_chain, head_addr


def test_depth_three_view_tree_matches_manual_composition():
    world, ref, head_chain, head_addr = _chained_world(3)
    tree = world.build_crosschain_view(
        "nodeA", CallSpec(head_chain, head_addr, encode_call("read_chain")),
        coordination_ref=ref)
    depths = [n.target_sidechain_id for n in tree.walk()]
    assert len(depths) == 3
    result = world.submit_crosschain_view("nodeA", tree)
    # manual composition: the three local values summed
    assert int.from_bytes(result, "big") == 100 + 200 + 300


def test_crosschain_view_locked_policies():
    world = World(seed=4)
    coord = world.add_coordination_chain(COORD_ID)
    ref = (COORD_ID, coord.contract_address)
    world.add_sidechain(SC1, validators=4, fault_tolerance=1)
    world.add_multichain_node("nodeA", [SC1])
    state = world.sidechains[SC1].state
    cell = state.deploy("cell", lockable=True, storage={1: 3})
    state.lock(cell, LockHolder(CrosschainTxId(5), SC1, ref),
               ProvisionalOverlay(storage_delta={1: 9}))
    tree = world.build_crosschain_view(
        "nodeA", CallSpec(SC1, cell, encode_call("get", 1)),
        coordination_ref=ref)
    assert world.submit_crosschain_view(
        "nodeA", tree, policy=LockedViewPolicy.ASSUME_IGNORED) == b"\x03"
    assert world.submit_crosschain_view(
        "nodeA", tree, policy=LockedViewPolicy.ASSUME_COMMITTED) == b"\x09"
    with pytest.raises(Exception):
        world.submit_crosschain_view(
            "nodeA", tree, policy=LockedViewPolicy.FAIL_IF_LOCKED)


@pytest.mark.parametrize("handler_id,function", [("proxy", "relay"), ("cell", "put")])
def test_view_build_refuses_writes(handler_id, function):
    """A view may neither write its own storage nor emit a subordinate
    transaction, so building it fails."""
    world = World(seed=4)
    coord = world.add_coordination_chain(COORD_ID)
    ref = (COORD_ID, coord.contract_address)
    for sc in (SC1, SC2):
        world.add_sidechain(sc, validators=4, fault_tolerance=1)
    world.add_multichain_node("nodeA", [SC1, SC2])
    cell = world.sidechains[SC2].state.deploy("cell", lockable=True)
    entry = world.sidechains[SC1].state.deploy(handler_id, lockable=True, storage={
        0: SC2.value, 1: int.from_bytes(cell, "big")})
    with pytest.raises(eng.BuildError) as err:
        world.build_crosschain_view(
            "nodeA", CallSpec(SC1, entry, encode_call(function, 1, 5)),
            coordination_ref=ref)
    assert err.value.reason == VIEW_WRITE


def test_crosschain_view_rejects_tx_nodes():
    world, mn, ref, contracts = conditional_buy_world()
    tx = build_purchase(world, mn, ref, contracts)
    with pytest.raises(EngineError):
        world.submit_crosschain_view("nodeA", tx)


def test_view_result_dissent():
    """A validator whose recomputation disagrees refuses to sign; with
    enough honest validators the view still succeeds, and with only m
    available and one dissenting it fails."""
    world, mn, ref, contracts = conditional_buy_world()
    dissenter = world.sidechains[SC2].validator(3)
    world.view_result_overrides[dissenter.node_id] = b"\x99"
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.committed  # 3 of 4 validators still agree (m = 2)

    world2, mn2, ref2, contracts2 = conditional_buy_world()
    # crash two spare validators: only the coordinator and the dissenter remain
    coordinator_index = mn2.members[SC2].index
    spare = [v for v in world2.sidechains[SC2].validators
             if v.index != coordinator_index]
    world2.view_result_overrides[spare[0].node_id] = b"\x99"
    for victim in spare[1:]:
        world2.net.inject(FaultSpec(kind="crash_node", node=victim.node_id,
                                    at_tick=0))
    tx2 = build_purchase(world2, mn2, ref2, contracts2)
    handle2 = world2.submit_crosschain_tx("nodeA", tx2)
    drain(world2)
    assert handle2.outcome == ("failed", eng.VIEW_SIGNING_FAILED)


def test_stale_view_result_rejected():
    config = WorldConfig(freshness_window=2)
    world, mn, ref, contracts = conditional_buy_world(config=config)
    world.net.inject(FaultSpec(kind="delay_message", mtype="view_reply",
                               extra_delay=100))
    tx = build_purchase(world, mn, ref, contracts, timeout_blocks=60)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.outcome == ("failed", eng.STALE_VIEW_RESULT)


# --- threshold faults --------------------------------------------------------------------

def _corrupt_share_tolerated_then_fatal(config=None):
    world, mn, ref, contracts = conditional_buy_world(config=config)
    corrupt_one = world.sidechains[SC1].validator(2)
    world.net.inject(FaultSpec(kind="corrupt_share", node=corrupt_one.node_id,
                               at_tick=0))
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.committed  # one bad share of four is tolerated

    world2, mn2, ref2, contracts2 = conditional_buy_world(config=config)
    coordinator_index = mn2.members[SC1].index
    for validator in world2.sidechains[SC1].validators:
        if validator.index != coordinator_index:
            world2.net.inject(FaultSpec(kind="corrupt_share",
                                        node=validator.node_id, at_tick=0))
    tx2 = build_purchase(world2, mn2, ref2, contracts2)
    handle2 = world2.submit_crosschain_tx("nodeA", tx2)
    drain(world2)
    assert handle2.outcome == ("failed", eng.START_SIGNING_FAILED)


def test_corrupt_share_tolerated_then_fatal():
    _corrupt_share_tolerated_then_fatal()


def test_corrupt_share_tolerated_then_fatal_bn254():
    # whole worlds on the real pairing: every share and signature check
    # is a bn254 pairing check
    _corrupt_share_tolerated_then_fatal(WorldConfig(scheme="bn254"))


def test_shares_are_checked_one_by_one_only_after_a_combination_fails(monkeypatch):
    from xchain.threshold import ThresholdScheme
    checked = []
    verify_share = ThresholdScheme.verify_share

    def counting(self, public_share, message, sig_share):
        checked.append(sig_share.index)
        return verify_share(self, public_share, message, sig_share)

    monkeypatch.setattr(ThresholdScheme, "verify_share", counting)
    world, mn, ref, contracts = conditional_buy_world()
    handle = world.submit_crosschain_tx(
        "nodeA", build_purchase(world, mn, ref, contracts))
    drain(world)
    assert handle.committed and checked == []

    world, mn, ref, contracts = conditional_buy_world()
    corrupt = world.sidechains[SC1].validator(2)
    world.net.inject(FaultSpec(kind="corrupt_share", node=corrupt.node_id,
                               at_tick=0))
    handle = world.submit_crosschain_tx(
        "nodeA", build_purchase(world, mn, ref, contracts))
    drain(world)
    assert handle.committed and corrupt.index in checked


def test_round_signs_when_the_last_reply_completes_the_threshold(monkeypatch):
    # m = n = 2: the one remote reply completes the key set, and Collect
    # calls ``enough`` on that reply too
    from xchain.threshold import ThresholdScheme
    combined = []
    combine = ThresholdScheme.combine

    def counting(self, shares, config):
        combined.append(len(shares))
        return combine(self, shares, config)

    monkeypatch.setattr(ThresholdScheme, "combine", counting)
    world, mn, ref, contracts = conditional_buy_world(validators=2)
    assert world.sidechains[SC1].threshold_config.m == 2
    handle = world.submit_crosschain_tx(
        "nodeA", build_purchase(world, mn, ref, contracts))
    drain(world)
    assert handle.committed
    # one combination per round: start, view result, ready and commit
    assert combined == [2, 2, 2, 2]


def test_lone_validator_signs_with_its_own_share():
    """A one-validator sidechain sends no signing request, so no reply
    ever calls ``enough``: its own share is the signature."""
    world, mn, ref, contracts = conditional_buy_world(validators=1,
                                                      fault_tolerance=0)
    handle = world.submit_crosschain_tx(
        "nodeA", build_purchase(world, mn, ref, contracts))
    drain(world)
    assert handle.committed


def test_remove_validators_below_threshold_times_out():
    world, mn, ref, contracts = conditional_buy_world()
    coordinator_index = mn.members[SC3].index
    for validator in world.sidechains[SC3].validators:
        if validator.index != coordinator_index:
            world.net.inject(FaultSpec(kind="remove_validator",
                                       node=validator.node_id, at_tick=0))
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.outcome is not None and handle.outcome[0] == "failed"
    assert not world.committed_contracts(tx.crosschain_tx_id)
    assert world.atomicity_ok(tx.crosschain_tx_id)


# --- replay and resubmission ----------------------------------------------------------------

def test_replay_rejected_and_fresh_resubmission_succeeds():
    world, mn, ref, contracts = conditional_buy_world()
    # first attempt fails: the subordinate coordinator is down
    sub_coordinator = mn.members[SC3]
    world.net.inject(FaultSpec(kind="crash_node", node=sub_coordinator.node_id,
                               at_step="sub:received"))
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert not handle.committed
    assert world.coordination[ref].has_entry(tx.crosschain_tx_id, SC1)

    # replaying the captured transaction is rejected at the contract
    replay = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert replay.outcome == ("failed", eng.START_REJECTED)

    # a fresh build picks a new id and corrected nonces and succeeds
    # (the crashed coordinator was nodeA's member; use another node)
    world.add_multichain_node("nodeB", [SC1, SC2, SC3], account=mn.account)
    fresh = build_purchase(world, world.multichain_nodes["nodeB"], ref, contracts,
                           account=mn.account)
    assert fresh.crosschain_tx_id != tx.crosschain_tx_id
    handle3 = world.submit_crosschain_tx("nodeB", fresh)
    drain(world)
    assert handle3.committed


# --- key rotation ----------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", ["modp", "bn254"])
def test_rekey_then_transact(scheme):
    world, mn, ref, contracts = conditional_buy_world(config=WorldConfig(scheme=scheme))
    old_key = world.coordination[ref].get_pubkey(SC2)
    world.rekey_sidechain(SC2, seed=4242)
    assert world.coordination[ref].get_pubkey(SC2) != old_key
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.committed


def test_start_refusal_policy():
    """Validators configured to refuse a coordinator's start requests
    (the spam-policy hook) starve the threshold round."""
    world, mn, ref, contracts = conditional_buy_world()
    for validator in world.sidechains[SC1].validators:
        world.start_sign_refusals.add(validator.node_id)
    tx = build_purchase(world, mn, ref, contracts)
    handle = world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    assert handle.outcome == ("failed", eng.START_SIGNING_FAILED)
    assert not world.coordination[ref].has_entry(tx.crosschain_tx_id, SC1)


def test_state_dump_records():
    world, mn, ref, contracts = conditional_buy_world()
    tx = build_purchase(world, mn, ref, contracts)
    world.submit_crosschain_tx("nodeA", tx)
    drain(world)
    world.dump_state_to_trace()
    dumps = [r for r in world.net.trace if r.kind == "dump"]
    assert any(r.reason.startswith("storage:") for r in dumps)
    assert any(r.reason.startswith("entries:") for r in dumps)


# --- the crash-expectation table ---------------------------------------------------------------

def test_expected_crash_outcome_table():
    assert expected_crash_outcome("orig:received") == "not_committed"
    assert expected_crash_outcome("orig:commit_signed") == "not_committed"
    assert expected_crash_outcome("orig:commit_submitted") == "committed"
    assert expected_crash_outcome("sub:mined") == "not_committed"
    assert expected_crash_outcome("sub:ready_sent") == "committed"
    with pytest.raises(ValueError):
        expected_crash_outcome("nonexistent:step")
