import ast
import dataclasses
import inspect

import pytest
from hypothesis import given, strategies as st

from xchain import handlers
from xchain.accounts import AccountKey
from xchain.hashing import keccak256
from xchain.wire import (
    CommonSignerError,
    CrosschainTransaction,
    CrosschainTxId,
    MessageKind,
    NestingError,
    SidechainClass,
    SidechainId,
    ThresholdMessage,
    TxType,
    WireError,
    decode_call,
    decode_message,
    encode_call,
    encode_message,
    recover_signer,
    rlp_decode,
    rlp_encode,
    selector,
    sign_tx,
    signing_digest,
    tx_hash,
    verify_common_signer,
)

from tree_gen import random_tree

COORD = SidechainId(1)
ORIGIN = SidechainId.private(0x11)
TARGET = SidechainId.private(0x22)
ADDR = bytes(range(20))
TXID = CrosschainTxId(0xDEADBEEF << 224)


def make_view(**overrides):
    fields = dict(
        tx_type=TxType.SUBORDINATE_VIEW, coordination_blockchain_id=COORD,
        coordination_contract_address=ADDR, crosschain_tx_id=TXID,
        originating_sidechain_id=ORIGIN, target_sidechain_id=TARGET,
        nonce=0, to=ADDR, data=encode_call("rate"))
    fields.update(overrides)
    return CrosschainTransaction(**fields)


def make_subtx(**overrides):
    fields = dict(
        tx_type=TxType.SUBORDINATE_TX, coordination_blockchain_id=COORD,
        coordination_contract_address=ADDR, crosschain_tx_id=TXID,
        originating_sidechain_id=ORIGIN, target_sidechain_id=TARGET,
        nonce=3, to=ADDR, data=encode_call("buy", 7))
    fields.update(overrides)
    return CrosschainTransaction(**fields)


def make_root(**overrides):
    fields = dict(
        tx_type=TxType.ORIGINATING, coordination_blockchain_id=COORD,
        coordination_contract_address=ADDR, crosschain_timeout_blocks=30,
        crosschain_tx_id=TXID, originating_sidechain_id=ORIGIN,
        nonce=0, to=ADDR, data=encode_call("condBuy", 1))
    fields.update(overrides)
    return CrosschainTransaction(**fields)


# --- sidechain id classification --------------------------------------------------

@pytest.mark.parametrize("value,expected", [
    (0, SidechainClass.ETHEREUM_CHAIN_ID),
    (0xFFFF, SidechainClass.ETHEREUM_CHAIN_ID),
    (0x10000, SidechainClass.RESERVED),
    ((0xFF << 248) - 1, SidechainClass.RESERVED),
    (0xFF << 248, SidechainClass.PRIVATE_SIDECHAIN),
    ((1 << 256) - 1, SidechainClass.PRIVATE_SIDECHAIN),
])
def test_sidechain_id_ranges(value, expected):
    assert SidechainId(value).sidechain_class is expected


def test_reserved_id_rejected_in_tree():
    bad = make_view(target_sidechain_id=SidechainId(0x12345))
    with pytest.raises(WireError):
        rlp_encode(make_root(subordinates=(bad,)))


# --- codec -------------------------------------------------------------------------

def test_three_level_round_trip():
    tree = make_root(subordinates=(make_subtx(subordinates=(make_view(),)),))
    assert rlp_decode(rlp_encode(tree)) == tree


def test_empty_subordinates_encode_as_empty_list():
    encoded = rlp_encode(make_view())
    # the 14th field is the empty subordinate list: RLP 0xc0
    assert b"\xc0" in encoded
    from xchain import rlp as rawrlp
    fields = rawrlp.decode(encoded)
    assert fields[13] == []


@pytest.mark.parametrize("seed", range(12))
def test_randomized_round_trip(seed):
    tree = random_tree(seed, signed=(seed % 2 == 0))
    assert rlp_decode(rlp_encode(tree)) == tree


def test_view_containing_tx_is_nesting_error():
    bad_view = make_view(subordinates=(make_subtx(),))
    with pytest.raises(NestingError):
        rlp_encode(make_root(subordinates=(bad_view,)))


def test_originating_below_root_is_nesting_error():
    with pytest.raises(NestingError):
        rlp_encode(make_root(subordinates=(make_root(),)))


def test_decode_rejects_truncation_and_unknown_type():
    encoded = rlp_encode(make_root())
    with pytest.raises(WireError):
        rlp_decode(encoded[:-3])
    from xchain import rlp as rawrlp
    fields = rawrlp.decode(encoded)
    fields[0] = b"\x07"
    with pytest.raises(WireError, match="unknown transaction type"):
        rlp_decode(rawrlp.encode(fields))


def test_decode_rejects_trailing_bytes():
    with pytest.raises(WireError):
        rlp_decode(rlp_encode(make_root()) + b"\x00")


def test_timeout_and_target_presence_enforced():
    with pytest.raises(WireError):
        rlp_encode(make_root(crosschain_timeout_blocks=None))
    with pytest.raises(WireError):
        rlp_encode(make_root(target_sidechain_id=TARGET))
    with pytest.raises(WireError):
        rlp_encode(make_subtx(crosschain_timeout_blocks=9))
    with pytest.raises(WireError):
        rlp_encode(make_subtx(target_sidechain_id=None))


# --- hashing and signatures ---------------------------------------------------------

def test_tx_hash_structural_equality_and_sensitivity():
    a = make_root(subordinates=(make_subtx(),))
    b = make_root(subordinates=(make_subtx(),))
    assert tx_hash(a) == tx_hash(b)
    c = make_root(subordinates=(make_subtx(data=encode_call("buy", 8)),))
    assert tx_hash(a) != tx_hash(c)


def test_sign_recover_and_tamper():
    key = AccountKey.from_label("signer")
    tree = make_root(subordinates=(make_subtx(subordinates=(make_view(),)),))
    signed = sign_tx(tree, key)
    assert recover_signer(signed) == key.address
    assert verify_common_signer(signed) == key.address
    # tamper with the nested view: the root recovery must change
    view = signed.subordinates[0].subordinates[0]
    bad_view = dataclasses.replace(view, data=encode_call("rate2"))
    bad_sub = dataclasses.replace(signed.subordinates[0], subordinates=(bad_view,))
    tampered = dataclasses.replace(signed, subordinates=(bad_sub,))
    assert recover_signer(tampered) != key.address


def test_signing_digest_kept_on_the_instance():
    key = AccountKey.from_label("signer")
    signed = sign_tx(make_root(subordinates=(make_subtx(),)), key)
    unsigned = dataclasses.replace(signed, sig_v=None, sig_r=None, sig_s=None)
    assert signing_digest(signed) == tx_hash(unsigned)
    assert signing_digest(unsigned) == tx_hash(unsigned)
    before = tx_hash.cache_info()
    assert signing_digest(signed) == tx_hash(unsigned)  # read, not hashed again
    assert tx_hash.cache_info().hits == before.hits + 1
    assert tx_hash.cache_info().misses == before.misses
    # a replaced copy derives its own digest
    other = dataclasses.replace(signed, nonce=signed.nonce + 1)
    assert "_signing_digest" not in vars(other)
    assert signing_digest(other) == tx_hash(dataclasses.replace(unsigned, nonce=other.nonce))
    assert signing_digest(other) != signing_digest(signed)
    # equality and hashing ignore the kept digest
    fresh = sign_tx(make_root(subordinates=(make_subtx(),)), key)
    assert "_signing_digest" in vars(signed) and "_signing_digest" not in vars(fresh)
    assert fresh == signed and hash(fresh) == hash(signed)


def test_double_signing_rejected():
    key = AccountKey.from_label("signer")
    signed = sign_tx(make_root(), key)
    with pytest.raises(WireError):
        sign_tx(signed, key)


def test_recover_requires_signature():
    with pytest.raises(WireError):
        recover_signer(make_root())
    zeroed = dataclasses.replace(make_root(), sig_v=27, sig_r=0, sig_s=0)
    with pytest.raises(Exception):
        recover_signer(zeroed)


def test_common_signer_violation_flagged():
    alice = AccountKey.from_label("alice")
    mallory = AccountKey.from_label("mallory")
    foreign_sub = sign_tx(make_subtx(), mallory)
    tree = dataclasses.replace(make_root(), subordinates=(foreign_sub,))
    signed = sign_tx(tree, alice)  # root signed by alice over mallory's subtree
    with pytest.raises(CommonSignerError):
        verify_common_signer(signed)


@pytest.mark.parametrize("seed", range(6))
def test_signature_covers_whole_subtree(seed):
    """Mutating any field of any node under the root invalidates the
    root signature."""
    key = AccountKey.from_label("cover")
    tree = random_tree(seed, max_depth=3, max_fanout=2)
    signed = sign_tx(tree, key)
    digest_before = signing_digest(signed)
    # flip one byte of one encoded subordinate by re-encoding a mutant
    if signed.subordinates:
        target = signed.subordinates[0]
        mutant = dataclasses.replace(target, value=target.value + 1)
        tampered = dataclasses.replace(
            signed, subordinates=(mutant,) + signed.subordinates[1:])
        assert signing_digest(tampered) != digest_before
        assert recover_signer(tampered) != key.address


# --- threshold messages ---------------------------------------------------------------

def _msg(kind, **overrides):
    fields = dict(kind=kind, originating_sidechain_id=ORIGIN,
                  crosschain_tx_id=TXID, coordination_blockchain_id=COORD,
                  coordination_contract_address=ADDR)
    fields.update(overrides)
    return ThresholdMessage(**fields)


def test_message_round_trips():
    samples = [
        _msg(MessageKind.START, timeout_blocks=30),
        _msg(MessageKind.COMMIT),
        _msg(MessageKind.IGNORE),
        _msg(MessageKind.SUBORDINATE_TX_READY,
             executing_sidechain_id=TARGET, transaction_hash=bytes(32)),
        _msg(MessageKind.SUBORDINATE_VIEW_RESULT,
             executing_sidechain_id=TARGET, block_number=7,
             view_hash=bytes(32), result=b""),
        _msg(MessageKind.SUBORDINATE_VIEW_RESULT,
             executing_sidechain_id=TARGET, block_number=0,
             view_hash=bytes(32), result=b"\x01\x02"),
    ]
    for msg in samples:
        assert decode_message(encode_message(msg)) == msg


def test_commit_and_ignore_differ_only_by_kind_tag():
    commit = encode_message(_msg(MessageKind.COMMIT))
    ignore = encode_message(_msg(MessageKind.IGNORE))
    assert commit != ignore
    diffs = [i for i, (a, b) in enumerate(zip(commit, ignore)) if a != b]
    assert len(commit) == len(ignore) and len(diffs) == 1  # just the kind tag


def test_message_field_set_enforced():
    with pytest.raises(WireError):
        encode_message(_msg(MessageKind.COMMIT, timeout_blocks=5))
    with pytest.raises(WireError):
        encode_message(_msg(MessageKind.START))  # missing timeout
    with pytest.raises(WireError):
        decode_message(b"\x01\x02")


# --- call data -----------------------------------------------------------------------

def test_call_data_round_trip():
    data = encode_call("transfer", 500, b"\xaa" * 20)
    sel, args = decode_call(data)
    assert len(sel) == 4
    assert int.from_bytes(args[0], "big") == 500
    assert args[1] == b"\xaa" * 20
    with pytest.raises(WireError):
        decode_call(b"\x01")


@given(st.integers(min_value=0, max_value=2**64), st.binary(max_size=40))
def test_call_data_property(number, blob):
    sel, args = decode_call(encode_call("fn", number, blob))
    assert int.from_bytes(args[0], "big") == number
    assert args[1] == blob


def _registered_functions():
    """(handler id, function name, function) for every ``@handler``
    decorator in xchain.handlers, read from its source."""
    tree = ast.parse(inspect.getsource(handlers))
    found = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for deco in node.decorator_list:
            if (isinstance(deco, ast.Call) and isinstance(deco.func, ast.Name)
                    and deco.func.id == "handler"):
                handler_id, name = (arg.value for arg in deco.args)
                found.append((handler_id, name, getattr(handlers, node.name)))
    return found


def test_selector_is_the_truncated_name_digest_of_every_handler_function():
    registered = _registered_functions()
    assert len(registered) >= 10
    for handler_id, name, fn in registered:
        expected = keccak256(name.encode())[:4]
        # the second call is answered by the memo
        assert selector(name) == expected
        assert selector(name) == expected
        assert handlers.HANDLERS[handler_id][expected] is fn
