import pytest

from xchain.coordination import (
    CoordinationChain,
    CoordinationError,
    EffectiveStatus,
    ReplayError,
    UnknownEntryError,
    entry_key,
    key_update_payload,
)
from xchain.hashing import keccak256
from xchain.threshold import ThresholdConfig, get_scheme
from xchain.wire import (
    CrosschainTxId,
    MessageKind,
    SidechainId,
    ThresholdMessage,
    encode_message,
)

COORD_ID = SidechainId(1)
CONTRACT = bytes(20)
ORIGIN = SidechainId.private(0xAA)
CONFIG = ThresholdConfig.from_fault_tolerance(4, 1)


@pytest.fixture
def setup():
    scheme = get_scheme("modp")
    chain = CoordinationChain(chain_id=COORD_ID, contract_address=CONTRACT,
                              scheme=scheme, max_timeout_blocks=100)
    shares, pk = scheme.keygen_dealer(CONFIG, 11)
    chain.register_pubkey(ORIGIN, pk, bootstrap=True)
    return scheme, chain, shares, pk


def _sign(scheme, shares, message: ThresholdMessage):
    payload = encode_message(message)
    partials = [scheme.sign_share(s, payload) for s in shares[:CONFIG.m]]
    return scheme.combine(partials, CONFIG)


def _start_msg(tx_id: int, timeout: int) -> ThresholdMessage:
    return ThresholdMessage(
        kind=MessageKind.START, originating_sidechain_id=ORIGIN,
        crosschain_tx_id=CrosschainTxId(tx_id),
        coordination_blockchain_id=COORD_ID,
        coordination_contract_address=CONTRACT, timeout_blocks=timeout)


def _plain_msg(kind: MessageKind, tx_id: int) -> ThresholdMessage:
    return ThresholdMessage(
        kind=kind, originating_sidechain_id=ORIGIN,
        crosschain_tx_id=CrosschainTxId(tx_id),
        coordination_blockchain_id=COORD_ID,
        coordination_contract_address=CONTRACT)


def test_start_sets_timeout_from_current_block(setup):
    scheme, chain, shares, _ = setup
    chain.advance_block(5)
    msg = _start_msg(1, 10)
    chain.start(msg, _sign(scheme, shares, msg))
    key = entry_key(msg.crosschain_tx_id, ORIGIN)
    assert chain.entries[key].timeout_block == 15


def test_replay_rejected(setup):
    scheme, chain, shares, _ = setup
    msg = _start_msg(2, 10)
    sig = _sign(scheme, shares, msg)
    chain.start(msg, sig)
    with pytest.raises(ReplayError):
        chain.start(msg, sig)


def test_timeout_above_maximum_rejected(setup):
    scheme, chain, shares, _ = setup
    msg = _start_msg(3, 101)
    with pytest.raises(CoordinationError, match="exceeds configured maximum"):
        chain.start(msg, _sign(scheme, shares, msg))


def test_bad_start_signature_rejected(setup):
    scheme, chain, shares, _ = setup
    msg = _start_msg(4, 10)
    other = _sign(scheme, shares, _start_msg(4, 11))  # signature over other bytes
    with pytest.raises(CoordinationError, match="signature"):
        chain.start(msg, other)


def test_commit_boundary_inclusive(setup):
    scheme, chain, shares, _ = setup
    start = _start_msg(5, 10)
    chain.start(start, _sign(scheme, shares, start))
    chain.advance_block(10)  # exactly the timeout block
    commit = _plain_msg(MessageKind.COMMIT, 5)
    chain.commit(commit, _sign(scheme, shares, commit))
    assert chain.status_of(start.crosschain_tx_id, ORIGIN) \
        is EffectiveStatus.COMMITTED


def test_commit_past_boundary_rejected(setup):
    scheme, chain, shares, _ = setup
    start = _start_msg(6, 10)
    chain.start(start, _sign(scheme, shares, start))
    chain.advance_block(11)
    commit = _plain_msg(MessageKind.COMMIT, 6)
    with pytest.raises(CoordinationError, match="timeout"):
        chain.commit(commit, _sign(scheme, shares, commit))


def test_terminal_states_immutable(setup):
    scheme, chain, shares, _ = setup
    start = _start_msg(7, 10)
    chain.start(start, _sign(scheme, shares, start))
    ignore = _plain_msg(MessageKind.IGNORE, 7)
    chain.ignore(ignore, _sign(scheme, shares, ignore))
    commit = _plain_msg(MessageKind.COMMIT, 7)
    with pytest.raises(CoordinationError, match="terminal"):
        chain.commit(commit, _sign(scheme, shares, commit))
    assert chain.status_of(start.crosschain_tx_id, ORIGIN) \
        is EffectiveStatus.IGNORED
    # and block advancement never changes a terminal state
    chain.advance_block(1000)
    assert chain.status_of(start.crosschain_tx_id, ORIGIN) \
        is EffectiveStatus.IGNORED


def test_ignore_then_commit_order_also_blocked(setup):
    scheme, chain, shares, _ = setup
    start = _start_msg(8, 10)
    chain.start(start, _sign(scheme, shares, start))
    commit = _plain_msg(MessageKind.COMMIT, 8)
    chain.commit(commit, _sign(scheme, shares, commit))
    ignore = _plain_msg(MessageKind.IGNORE, 8)
    with pytest.raises(CoordinationError, match="terminal"):
        chain.ignore(ignore, _sign(scheme, shares, ignore))


def test_wrong_sidechain_key_rejected(setup):
    scheme, chain, shares, _ = setup
    other_shares, other_pk = scheme.keygen_dealer(CONFIG, 999)
    start = _start_msg(9, 10)
    with pytest.raises(CoordinationError, match="signature"):
        chain.start(start, _sign(scheme, other_shares, start))


def test_effective_status_boundary_sweep(setup):
    scheme, chain, shares, _ = setup
    start = _start_msg(10, 10)
    chain.start(start, _sign(scheme, shares, start))
    key = entry_key(start.crosschain_tx_id, ORIGIN)
    timeout = chain.entries[key].timeout_block
    for block in range(timeout - 2, timeout + 3):
        status = chain.effective_status(key, at_block=block)
        if block <= timeout:
            assert status is EffectiveStatus.STARTED, block
        else:
            assert status is EffectiveStatus.TIMED_OUT, block


def test_effective_status_unknown_entry(setup):
    _, chain, _, _ = setup
    with pytest.raises(UnknownEntryError):
        chain.effective_status(b"\x00" * 32)
    with pytest.raises(UnknownEntryError):
        chain.entry_timeout(CrosschainTxId(404), ORIGIN)


def test_advance_block_semantics(setup):
    _, chain, _, _ = setup
    before = chain.block_number
    chain.advance_block(0)
    assert chain.block_number == before
    chain.advance_block(1)
    chain.advance_block(2)
    assert chain.block_number == before + 3
    with pytest.raises(CoordinationError):
        chain.advance_block(-1)


# --- public key registry ----------------------------------------------------------

def test_bootstrap_then_lookup(setup):
    _, chain, _, pk = setup
    assert chain.get_pubkey(ORIGIN) == pk
    assert chain.get_pubkey(SidechainId.private(0xBB)) is None


def test_bootstrap_twice_refused(setup):
    _, chain, _, pk = setup
    with pytest.raises(CoordinationError):
        chain.register_pubkey(ORIGIN, pk, bootstrap=True)


def test_rotation_with_grace_window(setup):
    scheme, chain, old_shares, old_pk = setup
    new_shares, new_pk = scheme.keygen_dealer(CONFIG, 2000)
    payload = key_update_payload(ORIGIN, scheme.public_key_bytes(new_pk))
    authorization = scheme.combine(
        [scheme.sign_share(s, payload) for s in old_shares[:CONFIG.m]], CONFIG)
    chain.register_pubkey(ORIGIN, new_pk, authorization=authorization)
    assert chain.get_pubkey(ORIGIN) == new_pk

    # a message signed under the old key still verifies inside the
    # grace window, and stops verifying once it expires
    start = _start_msg(42, 10)
    old_sig = _sign(scheme, old_shares, start)
    chain.start(start, old_sig)
    chain.advance_block(chain.grace_window + 1)
    late = _start_msg(43, 10)
    late_sig = scheme.combine(
        [scheme.sign_share(s, encode_message(late)) for s in old_shares[:CONFIG.m]],
        CONFIG)
    with pytest.raises(CoordinationError):
        chain.start(late, late_sig)


def test_rotation_requires_authorization(setup):
    scheme, chain, _, _ = setup
    _, new_pk = scheme.keygen_dealer(CONFIG, 3000)
    with pytest.raises(CoordinationError):
        chain.register_pubkey(ORIGIN, new_pk)
    wrong_shares, _ = scheme.keygen_dealer(CONFIG, 3001)
    payload = key_update_payload(ORIGIN, scheme.public_key_bytes(new_pk))
    bad_auth = scheme.combine(
        [scheme.sign_share(s, payload) for s in wrong_shares[:CONFIG.m]], CONFIG)
    with pytest.raises(CoordinationError):
        chain.register_pubkey(ORIGIN, new_pk, authorization=bad_auth)
    with pytest.raises(CoordinationError):
        chain.register_pubkey(SidechainId.private(0xCC), new_pk,
                              authorization=bad_auth)


def test_entry_key_is_the_digest_of_id_and_sidechain():
    other = SidechainId.private(0xBB)
    for value in (0, 1, 2**255 + 7):
        for origin in (ORIGIN, other):
            expected = keccak256(CrosschainTxId(value).to_bytes() + origin.to_bytes())
            # the second call is answered by the memo, from an equal id
            assert entry_key(CrosschainTxId(value), origin) == expected
            assert entry_key(CrosschainTxId(value), origin) == expected
    assert entry_key(CrosschainTxId(1), ORIGIN) != entry_key(CrosschainTxId(1), other)
