import copy

import pytest
from hypothesis import given, strategies as st

from xchain.handlers import HANDLERS
from xchain.sidechain import (
    CALL_MISMATCH,
    CallFrame,
    ExecutionError,
    LOCK_CONTENTION,
    LockDecision,
    LockHolder,
    LockedViewPolicy,
    NONCE_MISMATCH,
    NOT_LOCKABLE,
    ProvisionalOverlay,
    SidechainState,
    result_bytes,
)
from xchain.accounts import AccountKey
from xchain.wire import (
    CrosschainTransaction,
    CrosschainTxId,
    SidechainId,
    TxType,
    encode_call,
    sign_tx,
)

CHAIN = SidechainId.private(0x77)
OTHER_CHAIN = SidechainId.private(0x88)
COORD = SidechainId(1)
CADDR = bytes(20)


@pytest.fixture
def state():
    return SidechainState(CHAIN, HANDLERS)


def holder(tx_id=1):
    return LockHolder(crosschain_tx_id=CrosschainTxId(tx_id),
                      originating_sidechain_id=CHAIN,
                      coordination_ref=(COORD, CADDR))


def crosschain_tx(to, data, nonce=0, signer=None, subordinates=()):
    tx = CrosschainTransaction(
        tx_type=TxType.ORIGINATING, coordination_blockchain_id=COORD,
        coordination_contract_address=CADDR, crosschain_timeout_blocks=30,
        crosschain_tx_id=CrosschainTxId(1), originating_sidechain_id=CHAIN,
        nonce=nonce, to=to, data=data, subordinates=tuple(subordinates))
    return sign_tx(tx, signer or AccountKey.from_label("tester"))


# --- deployment ---------------------------------------------------------------

def test_deploy_defaults_to_nonlockable(state):
    addr = state.deploy("cell")
    assert state.contract_at(addr).lockable is False


def test_deploy_addresses_distinct_and_deterministic(state):
    a = state.deploy("cell")
    b = state.deploy("cell")
    assert a != b
    fresh = SidechainState(CHAIN, HANDLERS)
    assert fresh.deploy("cell") == a  # same deployer, counter and chain


def test_deploy_unknown_handler(state):
    with pytest.raises(ExecutionError, match="unknown-handler"):
        state.deploy("no-such-handler")


# --- locking ---------------------------------------------------------------------

def test_lock_unlock_lifecycle(state):
    addr = state.deploy("cell", lockable=True)
    overlay = ProvisionalOverlay(storage_delta={5: 7})
    state.lock(addr, holder(), overlay)
    assert state.locked_by(addr) == holder()
    with pytest.raises(ExecutionError, match=LOCK_CONTENTION):
        state.lock(addr, holder(2), ProvisionalOverlay())
    state.finalize(addr, LockDecision.COMMIT)
    assert state.locked_by(addr) is None
    assert state.contract_at(addr).storage[5] == 7


def test_lock_nonlockable_fails(state):
    addr = state.deploy("cell")  # default nonlockable
    with pytest.raises(ExecutionError, match=NOT_LOCKABLE):
        state.lock(addr, holder(), ProvisionalOverlay())


def test_finalize_ignore_discards(state):
    addr = state.deploy("cell", lockable=True, storage={5: 1})
    before = copy.deepcopy(state.contract_at(addr).storage)
    state.lock(addr, holder(), ProvisionalOverlay(storage_delta={5: 7}))
    state.finalize(addr, LockDecision.IGNORE)
    assert state.contract_at(addr).storage == before


def test_finalize_unlocked_errors(state):
    addr = state.deploy("cell", lockable=True)
    with pytest.raises(ExecutionError, match="not-locked"):
        state.finalize(addr, LockDecision.COMMIT)


# --- views ------------------------------------------------------------------------

def test_view_policies_on_locked_contract(state):
    addr = state.deploy("cell", lockable=True, storage={1: 3})
    data = encode_call("get", 1)
    # unlocked: all policies agree
    for policy in LockedViewPolicy:
        assert state.read_view(addr, data, policy=policy) == b"\x03"
    state.lock(addr, holder(), ProvisionalOverlay(storage_delta={1: 9}))
    assert state.read_view(addr, data, policy=LockedViewPolicy.ASSUME_IGNORED) == b"\x03"
    assert state.read_view(addr, data, policy=LockedViewPolicy.ASSUME_COMMITTED) == b"\x09"
    with pytest.raises(ExecutionError, match="locked"):
        state.read_view(addr, data, policy=LockedViewPolicy.FAIL_IF_LOCKED)
    # the lock-holding transaction reads its own provisional writes
    assert state.read_view(addr, data, policy=LockedViewPolicy.FAIL_IF_LOCKED,
                           same_holder=holder()) == b"\x09"


def test_view_rejects_writes(state):
    addr = state.deploy("cell")
    with pytest.raises(ExecutionError, match="view-write"):
        state.read_view(addr, encode_call("put", 1, 2))


# --- execute_local: nonce, locks, call matching -------------------------------------

def test_execute_local_produces_unapplied_overlay(state):
    addr = state.deploy("cell", lockable=True)
    key = AccountKey.from_label("tester")
    tx = crosschain_tx(addr, encode_call("put", 2, 44), signer=key)
    outcome = state.execute_local(tx, CallFrame.for_tx(tx), key.address)
    assert outcome.overlay.storage_delta == {2: 44}
    assert state.contract_at(addr).storage.get(2, 0) == 0  # not applied


def test_execute_local_nonce_mismatch(state):
    addr = state.deploy("cell", lockable=True)
    key = AccountKey.from_label("tester")
    tx = crosschain_tx(addr, encode_call("put", 2, 44), nonce=5, signer=key)
    with pytest.raises(ExecutionError, match=NONCE_MISMATCH):
        state.execute_local(tx, CallFrame.for_tx(tx), key.address)


def test_execute_local_lock_contention_and_nonlockable(state):
    locked = state.deploy("cell", lockable=True)
    state.lock(locked, holder(99), ProvisionalOverlay())
    key = AccountKey.from_label("tester")
    tx = crosschain_tx(locked, encode_call("put", 1, 1), signer=key)
    with pytest.raises(ExecutionError, match=LOCK_CONTENTION):
        state.execute_local(tx, CallFrame.for_tx(tx), key.address)
    plain = state.deploy("cell")  # nonlockable
    tx2 = crosschain_tx(plain, encode_call("put", 1, 1), signer=key)
    with pytest.raises(ExecutionError, match=NOT_LOCKABLE):
        state.execute_local(tx2, CallFrame.for_tx(tx2), key.address)


def _proxy_with_target(state, target_chain, target_addr):
    return state.deploy("proxy", lockable=True, storage={
        0: target_chain.value, 1: int.from_bytes(target_addr, "big")})


def test_call_matching_consumes_in_order(state):
    target = bytes(range(20))
    proxy = _proxy_with_target(state, OTHER_CHAIN, target)
    key = AccountKey.from_label("tester")
    sub = CrosschainTransaction(
        tx_type=TxType.SUBORDINATE_TX, coordination_blockchain_id=COORD,
        coordination_contract_address=CADDR, crosschain_tx_id=CrosschainTxId(1),
        originating_sidechain_id=CHAIN, target_sidechain_id=OTHER_CHAIN,
        nonce=0, to=target, data=encode_call("add", 1, 5))
    tx = crosschain_tx(proxy, encode_call("relay", 1, 5), signer=key,
                       subordinates=(sub,))
    frame = CallFrame.for_tx(tx)
    state.execute_local(tx, frame, key.address)
    assert frame.cursor == 1


def test_call_matching_rejects_mismatched_parameters(state):
    target = bytes(range(20))
    proxy = _proxy_with_target(state, OTHER_CHAIN, target)
    key = AccountKey.from_label("tester")
    # signed entry says add(1, 6); the handler will emit add(1, 5)
    sub = CrosschainTransaction(
        tx_type=TxType.SUBORDINATE_TX, coordination_blockchain_id=COORD,
        coordination_contract_address=CADDR, crosschain_tx_id=CrosschainTxId(1),
        originating_sidechain_id=CHAIN, target_sidechain_id=OTHER_CHAIN,
        nonce=0, to=target, data=encode_call("add", 1, 6))
    tx = crosschain_tx(proxy, encode_call("relay", 1, 5), signer=key,
                       subordinates=(sub,))
    with pytest.raises(ExecutionError, match=CALL_MISMATCH):
        state.execute_local(tx, CallFrame.for_tx(tx), key.address)


def test_call_matching_requires_full_consumption(state):
    addr = state.deploy("cell", lockable=True)
    key = AccountKey.from_label("tester")
    phantom = CrosschainTransaction(
        tx_type=TxType.SUBORDINATE_TX, coordination_blockchain_id=COORD,
        coordination_contract_address=CADDR, crosschain_tx_id=CrosschainTxId(1),
        originating_sidechain_id=CHAIN, target_sidechain_id=OTHER_CHAIN,
        nonce=0, to=bytes(20), data=encode_call("add", 1, 1))
    # signed list promises a subordinate call the handler never makes
    tx = crosschain_tx(addr, encode_call("put", 1, 1), signer=key,
                       subordinates=(phantom,))
    with pytest.raises(ExecutionError, match=CALL_MISMATCH):
        state.execute_local(tx, CallFrame.for_tx(tx), key.address)


def test_view_results_fed_from_frame(state):
    oracle_chain = OTHER_CHAIN
    oracle_addr = bytes(range(20))
    commodity_addr = bytes(range(1, 21))
    control = state.deploy("control", lockable=True, storage={
        0: oracle_chain.value, 1: int.from_bytes(oracle_addr, "big"),
        2: oracle_chain.value, 3: int.from_bytes(commodity_addr, "big")})
    key = AccountKey.from_label("tester")
    view = CrosschainTransaction(
        tx_type=TxType.SUBORDINATE_VIEW, coordination_blockchain_id=COORD,
        coordination_contract_address=CADDR, crosschain_tx_id=CrosschainTxId(1),
        originating_sidechain_id=CHAIN, target_sidechain_id=oracle_chain,
        nonce=0, to=oracle_addr, data=encode_call("rate"))
    buy = CrosschainTransaction(
        tx_type=TxType.SUBORDINATE_TX, coordination_blockchain_id=COORD,
        coordination_contract_address=CADDR, crosschain_tx_id=CrosschainTxId(1),
        originating_sidechain_id=CHAIN, target_sidechain_id=oracle_chain,
        nonce=0, to=commodity_addr, data=encode_call("buy", 2))
    tx = crosschain_tx(control, encode_call("condBuy", 2), signer=key,
                       subordinates=(view, buy))
    frame = CallFrame.for_tx(tx)
    frame.view_results[0] = (50).to_bytes(1, "big")
    state.execute_local(tx, frame, key.address)  # rate < 100: buy consumed
    # missing view result is an error
    frame2 = CallFrame.for_tx(tx)
    with pytest.raises(ExecutionError, match="missing-view-result"):
        state.execute_local(tx, frame2, key.address)


# --- ordinary local transactions ------------------------------------------------------

def test_local_tx_applies_immediately_and_bumps_nonce(state):
    addr = state.deploy("cell")
    sender = AccountKey.from_label("solo").address
    state.apply_local_tx(addr, encode_call("put", 3, 12), sender, nonce=0)
    assert state.contract_at(addr).storage[3] == 12
    assert state.expected_nonce(sender) == 1
    with pytest.raises(ExecutionError, match=NONCE_MISMATCH):
        state.apply_local_tx(addr, encode_call("put", 3, 13), sender, nonce=0)


# --- value and conservation -----------------------------------------------------------

def test_value_transfers_conserve_total(state):
    exec_addr = state.deploy("swap_execution", lockable=True, balance=1000,
                             storage={0: 2, 2: OTHER_CHAIN.value,
                                      3: int.from_bytes(bytes(20), "big")})
    buyer = AccountKey.from_label("buyer")
    state.set_balance(buyer.address, 50)
    total_before = state.total_value()
    sub = CrosschainTransaction(
        tx_type=TxType.SUBORDINATE_TX, coordination_blockchain_id=COORD,
        coordination_contract_address=CADDR, crosschain_tx_id=CrosschainTxId(1),
        originating_sidechain_id=CHAIN, target_sidechain_id=OTHER_CHAIN,
        nonce=0, to=bytes(20), data=encode_call("pay", 600))
    tx = crosschain_tx(exec_addr, encode_call("swap", 300), signer=buyer,
                       subordinates=(sub,))
    outcome = state.execute_local(tx, CallFrame.for_tx(tx), buyer.address)
    assert sum(outcome.overlay.balance_deltas.values()) == 0
    state.lock(exec_addr, LockHolder.of_tx(tx), outcome.overlay)
    state.finalize(exec_addr, LockDecision.COMMIT)
    assert state.total_value() == total_before
    assert state.balances[buyer.address] == 350
    assert state.balances[exec_addr] == 700


def test_swap_owner_withdraws_whole_balance(state):
    """The offer owner collects everything paid into the swap contract;
    anyone else is refused and nothing moves."""
    owner = AccountKey.from_label("owner")
    stranger = AccountKey.from_label("stranger")
    exec_addr = state.deploy("swap_execution", lockable=True, balance=700,
                             storage={1: int.from_bytes(owner.address, "big")})
    total_before = state.total_value()
    with pytest.raises(ExecutionError, match="only the offer owner withdraws"):
        state.apply_local_tx(exec_addr, encode_call("withdraw"), stranger.address,
                             nonce=0)
    assert state.balances[exec_addr] == 700
    assert stranger.address not in state.balances
    assert state.expected_nonce(stranger.address) == 0
    state.apply_local_tx(exec_addr, encode_call("withdraw"), owner.address, nonce=0)
    assert state.balances[exec_addr] == 0
    assert state.balances[owner.address] == 700
    assert state.total_value() == total_before


# --- overlay isolation property ---------------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2**32)), max_size=8),
       st.booleans())
def test_overlay_isolation(program, commit):
    """Random write programs: base state never changes before a commit
    decision, and an ignore decision restores it bit for bit."""
    state = SidechainState(CHAIN, HANDLERS)
    addr = state.deploy("cell", lockable=True, storage={0: 111, 9: 222})
    snapshot = copy.deepcopy(state.contract_at(addr).storage)
    overlay = ProvisionalOverlay(storage_delta=dict(program))
    state.lock(addr, holder(), overlay)
    assert state.contract_at(addr).storage == snapshot
    state.finalize(addr, LockDecision.COMMIT if commit else LockDecision.IGNORE)
    if commit:
        expected = dict(snapshot)
        expected.update(dict(program))
        assert state.contract_at(addr).storage == expected
    else:
        assert state.contract_at(addr).storage == snapshot


def test_result_bytes_forms():
    assert result_bytes(None) == b""
    assert result_bytes(0) == b""
    assert result_bytes(True) == b"\x01"
    assert result_bytes(255) == b"\xff"
    assert result_bytes(b"raw") == b"raw"
