"""Crosschain transaction trees, threshold messages and their canonical
RLP wire form.

A transaction tree has one root (an originating transaction when
submitted by an application) whose subordinates nest arbitrarily deep,
with the rule that read-only subtrees stay read-only: a subordinate
view may only contain other subordinate views. Every node in the tree
is individually signed and each signature covers the node's entire
subtree, so tampering anywhere under a node breaks that node's
signature and its ancestors'.
"""

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Optional, Tuple

from . import rlp
from .accounts import AccountKey, recover_digest
from .hashing import keccak256


class WireError(ValueError):
    pass


class NestingError(WireError):
    pass


class CommonSignerError(WireError):
    pass


_ETH_CHAIN_MAX = 0xFFFF
_PRIVATE_MIN = 0xFF << 248
_ID_MAX = (1 << 256) - 1


class SidechainClass(enum.Enum):
    ETHEREUM_CHAIN_ID = "ethereum"
    PRIVATE_SIDECHAIN = "private"
    RESERVED = "reserved"


@dataclass(frozen=True, order=True)
class SidechainId:
    """256-bit chain identifier; the number range encodes the class."""

    value: int

    def __post_init__(self):
        if not 0 <= self.value <= _ID_MAX:
            raise WireError(f"sidechain id out of 256-bit range: {self.value:#x}")

    @property
    def sidechain_class(self) -> SidechainClass:
        if self.value <= _ETH_CHAIN_MAX:
            return SidechainClass.ETHEREUM_CHAIN_ID
        if self.value >= _PRIVATE_MIN:
            return SidechainClass.PRIVATE_SIDECHAIN
        return SidechainClass.RESERVED

    @classmethod
    def private(cls, low_bits: int) -> "SidechainId":
        """A private-range id from a short human-friendly number."""
        return cls(_PRIVATE_MIN | low_bits)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(32, "big")

    def short(self) -> str:
        if self.sidechain_class is SidechainClass.PRIVATE_SIDECHAIN:
            return f"sc{self.value & ((1 << 64) - 1):x}"
        return f"chain{self.value:x}"


@dataclass(frozen=True, order=True)
class CrosschainTxId:
    """Random 256-bit transaction identifier; uniqueness is enforced by
    the coordination contract's replay rejection, not locally."""

    value: int

    def __post_init__(self):
        if not 0 <= self.value <= _ID_MAX:
            raise WireError(f"crosschain tx id out of range: {self.value:#x}")

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(32, "big")

    def short(self) -> str:
        return f"{self.value >> 224:08x}"


class TxType(enum.IntEnum):
    ORIGINATING = 0
    SUBORDINATE_TX = 1
    SUBORDINATE_VIEW = 2


def _check_address(addr: bytes, what: str) -> bytes:
    if not isinstance(addr, bytes) or len(addr) != 20:
        raise WireError(f"{what} must be a 20-byte address")
    return addr


@dataclass(frozen=True)
class CrosschainTransaction:
    """One node of a signed crosschain transaction tree."""

    tx_type: TxType
    coordination_blockchain_id: SidechainId
    coordination_contract_address: bytes
    crosschain_tx_id: CrosschainTxId
    originating_sidechain_id: SidechainId
    nonce: int
    to: bytes
    data: bytes
    crosschain_timeout_blocks: Optional[int] = None
    target_sidechain_id: Optional[SidechainId] = None
    gas_price: int = 0
    gas_limit: int = 0
    value: int = 0
    subordinates: Tuple["CrosschainTransaction", ...] = field(default_factory=tuple)
    sig_v: Optional[int] = None
    sig_r: Optional[int] = None
    sig_s: Optional[int] = None

    @property
    def signed(self) -> bool:
        return self.sig_v is not None

    @property
    def execution_sidechain_id(self) -> SidechainId:
        """The sidechain this node of the tree executes on."""
        if self.tx_type is TxType.ORIGINATING:
            return self.originating_sidechain_id
        return self.target_sidechain_id

    def validate(self, is_root: bool = True) -> None:
        _check_address(self.coordination_contract_address,
                       "coordination contract")
        _check_address(self.to, "to")
        if self.tx_type is TxType.ORIGINATING:
            if not is_root:
                raise NestingError("originating transaction below the root")
            if self.crosschain_timeout_blocks is None or self.crosschain_timeout_blocks < 1:
                raise WireError("originating transaction needs a positive timeout")
            if self.target_sidechain_id is not None:
                raise WireError("originating transaction carries no target sidechain")
        else:
            if self.crosschain_timeout_blocks is not None:
                raise WireError("timeout is only carried by the originating transaction")
            if self.target_sidechain_id is None:
                raise WireError("subordinate needs a target sidechain")
            if self.target_sidechain_id.sidechain_class is SidechainClass.RESERVED:
                raise WireError("target sidechain id in reserved range")
        for sid in (self.coordination_blockchain_id, self.originating_sidechain_id):
            if sid.sidechain_class is SidechainClass.RESERVED:
                raise WireError(f"sidechain id in reserved range: {sid.value:#x}")
        for sub in self.subordinates:
            if sub.tx_type is TxType.ORIGINATING:
                raise NestingError("originating transaction nested as subordinate")
            if (self.tx_type is TxType.SUBORDINATE_VIEW
                    and sub.tx_type is not TxType.SUBORDINATE_VIEW):
                raise NestingError(
                    "subordinate view may only contain subordinate views")
            sub.validate(is_root=False)

    def walk(self):
        """Yield every node of the tree, depth first, root included."""
        yield self
        for sub in self.subordinates:
            yield from sub.walk()

    @cached_property
    def _signing_digest(self) -> bytes:
        # kept in the instance's __dict__, outside the fields, so equality
        # and hashing ignore it and a ``replace``d copy derives its own
        return tx_hash(replace(self, sig_v=None, sig_r=None, sig_s=None))


def _encode_fields(tx: CrosschainTransaction) -> list:
    return [
        int(tx.tx_type),
        tx.coordination_blockchain_id.value,
        tx.coordination_contract_address,
        b"" if tx.crosschain_timeout_blocks is None else tx.crosschain_timeout_blocks,
        tx.crosschain_tx_id.value,
        tx.originating_sidechain_id.value,
        b"" if tx.target_sidechain_id is None else tx.target_sidechain_id.value,
        tx.nonce,
        tx.gas_price,
        tx.gas_limit,
        tx.to,
        tx.value,
        tx.data,
        [_encode_fields(sub) for sub in tx.subordinates],
        b"" if tx.sig_v is None else tx.sig_v,
        b"" if tx.sig_r is None else tx.sig_r,
        b"" if tx.sig_s is None else tx.sig_s,
    ]


def rlp_encode(tx: CrosschainTransaction) -> bytes:
    """Canonical byte form; rejects trees violating nesting rules."""
    tx.validate()
    return rlp.encode(_encode_fields(tx))


def rlp_decode(data: bytes) -> CrosschainTransaction:
    """Strict inverse of rlp_encode; trailing bytes are rejected."""
    try:
        items = rlp.decode(data)
    except rlp.RlpError as exc:
        raise WireError(f"malformed RLP: {exc}") from exc
    tx = _decode_fields(items)
    tx.validate()
    return tx


def _decode_fields(items) -> CrosschainTransaction:
    if not isinstance(items, list) or len(items) != 17:
        raise WireError("transaction must be a 17-field list")
    for i, must_be_bytes in ((2, True), (10, True), (12, True)):
        if not isinstance(items[i], bytes):
            raise WireError(f"field {i} must be a byte string")
    if not isinstance(items[13], list):
        raise WireError("subordinates field must be a list")

    def as_int(raw, what):
        if not isinstance(raw, bytes):
            raise WireError(f"{what} must be a scalar")
        try:
            return rlp.bytes_to_int(raw)
        except rlp.RlpError as exc:
            raise WireError(f"{what}: {exc}") from exc

    tag = as_int(items[0], "tx type")
    try:
        tx_type = TxType(tag)
    except ValueError:
        raise WireError(f"unknown transaction type tag {tag}") from None
    timeout_raw = items[3]
    target_raw = items[6]
    return CrosschainTransaction(
        tx_type=tx_type,
        coordination_blockchain_id=SidechainId(as_int(items[1], "coordination id")),
        coordination_contract_address=items[2],
        crosschain_timeout_blocks=(
            None if tx_type is not TxType.ORIGINATING
            else as_int(timeout_raw, "timeout")),
        crosschain_tx_id=CrosschainTxId(as_int(items[4], "tx id")),
        originating_sidechain_id=SidechainId(as_int(items[5], "originating id")),
        target_sidechain_id=(
            None if tx_type is TxType.ORIGINATING
            else SidechainId(as_int(target_raw, "target id"))),
        nonce=as_int(items[7], "nonce"),
        gas_price=as_int(items[8], "gas price"),
        gas_limit=as_int(items[9], "gas limit"),
        to=items[10],
        value=as_int(items[11], "value"),
        data=items[12],
        subordinates=tuple(_decode_fields(sub) for sub in items[13]),
        sig_v=None if items[14] == b"" else as_int(items[14], "v"),
        sig_r=None if items[15] == b"" else as_int(items[15], "r"),
        sig_s=None if items[16] == b"" else as_int(items[16], "s"),
    )


@lru_cache(maxsize=16384)
def tx_hash(tx: CrosschainTransaction) -> bytes:
    # value-keyed cache: transactions are frozen and hashed repeatedly
    # by every validator on the path
    return keccak256(rlp_encode(tx))


def signing_digest(tx: CrosschainTransaction) -> bytes:
    """Digest an account signs: hash of the signature-less encoding,
    which covers every (already signed) subordinate. Derived once per
    transaction instance."""
    return tx._signing_digest


def sign_tx(tx: CrosschainTransaction, account: AccountKey) -> CrosschainTransaction:
    """Sign the whole tree bottom-up with one account key."""
    if tx.signed:
        raise WireError("transaction is already signed")
    signed_subs = tuple(
        sub if sub.signed else sign_tx(sub, account) for sub in tx.subordinates)
    tx = replace(tx, subordinates=signed_subs)
    v, r, s = account.sign(signing_digest(tx))
    return replace(tx, sig_v=v, sig_r=r, sig_s=s)


def recover_signer(tx: CrosschainTransaction) -> bytes:
    """Address whose key produced this node's signature."""
    if not tx.signed:
        raise WireError("transaction is not signed")
    return recover_digest(signing_digest(tx), tx.sig_v, tx.sig_r, tx.sig_s)


def verify_common_signer(tx: CrosschainTransaction) -> bytes:
    """Every node of the tree must recover to the same account, which
    blocks splicing foreign subtrees into a transaction."""
    signer = recover_signer(tx)
    for sub in tx.subordinates:
        if verify_common_signer(sub) != signer:
            raise CommonSignerError(
                "subordinate signed by a different account than the root")
    return signer


# ---------------------------------------------------------------------------
# Threshold messages (the five message kinds validators collectively sign)
# ---------------------------------------------------------------------------

class MessageKind(enum.IntEnum):
    START = 0
    COMMIT = 1
    IGNORE = 2
    SUBORDINATE_TX_READY = 3
    SUBORDINATE_VIEW_RESULT = 4


@dataclass(frozen=True)
class ThresholdMessage:
    """A message a sidechain threshold-signs: start, commit, ignore,
    subordinate ready or view result."""

    kind: MessageKind
    originating_sidechain_id: SidechainId
    crosschain_tx_id: CrosschainTxId
    coordination_blockchain_id: SidechainId
    coordination_contract_address: bytes
    timeout_blocks: Optional[int] = None            # START only
    executing_sidechain_id: Optional[SidechainId] = None   # READY / VIEW_RESULT
    transaction_hash: Optional[bytes] = None        # READY only
    block_number: Optional[int] = None              # VIEW_RESULT only
    view_hash: Optional[bytes] = None               # VIEW_RESULT only
    result: Optional[bytes] = None                  # VIEW_RESULT only

    def validate(self) -> None:
        _check_address(self.coordination_contract_address, "coordination contract")
        expect = {
            MessageKind.START: ("timeout_blocks",),
            MessageKind.COMMIT: (),
            MessageKind.IGNORE: (),
            MessageKind.SUBORDINATE_TX_READY: (
                "executing_sidechain_id", "transaction_hash"),
            MessageKind.SUBORDINATE_VIEW_RESULT: (
                "executing_sidechain_id", "block_number", "view_hash", "result"),
        }[self.kind]
        optional = ("timeout_blocks", "executing_sidechain_id", "transaction_hash",
                    "block_number", "view_hash", "result")
        for name in optional:
            present = getattr(self, name) is not None
            if present != (name in expect):
                raise WireError(
                    f"{self.kind.name} message field {name} "
                    f"{'unexpected' if present else 'missing'}")
        if self.transaction_hash is not None and len(self.transaction_hash) != 32:
            raise WireError("transaction hash must be 32 bytes")
        if self.view_hash is not None and len(self.view_hash) != 32:
            raise WireError("view hash must be 32 bytes")


def encode_message(msg: ThresholdMessage) -> bytes:
    """Canonical bytes per message kind; exactly what gets threshold
    signed and verified."""
    msg.validate()
    items = [
        int(msg.kind),
        msg.originating_sidechain_id.value,
        msg.crosschain_tx_id.value,
        msg.coordination_blockchain_id.value,
        msg.coordination_contract_address,
    ]
    if msg.kind is MessageKind.START:
        items.append(msg.timeout_blocks)
    elif msg.kind is MessageKind.SUBORDINATE_TX_READY:
        items += [msg.executing_sidechain_id.value, msg.transaction_hash]
    elif msg.kind is MessageKind.SUBORDINATE_VIEW_RESULT:
        items += [msg.executing_sidechain_id.value, msg.block_number,
                  msg.view_hash, msg.result]
    return rlp.encode(items)


def decode_message(data: bytes) -> ThresholdMessage:
    try:
        items = rlp.decode(data)
    except rlp.RlpError as exc:
        raise WireError(f"malformed RLP: {exc}") from exc
    if not isinstance(items, list) or len(items) < 5:
        raise WireError("threshold message must be a list of at least 5 fields")
    for item in items:
        if not isinstance(item, bytes):
            raise WireError("threshold message fields must be scalars")

    def as_int(raw):
        try:
            return rlp.bytes_to_int(raw)
        except rlp.RlpError as exc:
            raise WireError(str(exc)) from exc

    try:
        kind = MessageKind(as_int(items[0]))
    except ValueError:
        raise WireError(f"unknown message kind tag {as_int(items[0])}") from None
    arity = {MessageKind.START: 6, MessageKind.COMMIT: 5, MessageKind.IGNORE: 5,
             MessageKind.SUBORDINATE_TX_READY: 7,
             MessageKind.SUBORDINATE_VIEW_RESULT: 9}[kind]
    if len(items) != arity:
        raise WireError(f"{kind.name} message must have {arity} fields")
    msg = ThresholdMessage(
        kind=kind,
        originating_sidechain_id=SidechainId(as_int(items[1])),
        crosschain_tx_id=CrosschainTxId(as_int(items[2])),
        coordination_blockchain_id=SidechainId(as_int(items[3])),
        coordination_contract_address=items[4],
        timeout_blocks=as_int(items[5]) if kind is MessageKind.START else None,
        executing_sidechain_id=(
            SidechainId(as_int(items[5]))
            if kind in (MessageKind.SUBORDINATE_TX_READY,
                        MessageKind.SUBORDINATE_VIEW_RESULT) else None),
        transaction_hash=items[6] if kind is MessageKind.SUBORDINATE_TX_READY else None,
        block_number=(as_int(items[6])
                      if kind is MessageKind.SUBORDINATE_VIEW_RESULT else None),
        view_hash=items[7] if kind is MessageKind.SUBORDINATE_VIEW_RESULT else None,
        result=items[8] if kind is MessageKind.SUBORDINATE_VIEW_RESULT else None,
    )
    msg.validate()
    return msg


# ---------------------------------------------------------------------------
# Contract call data: RLP of [4-byte selector, *parameters]
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def selector(function_name: str) -> bytes:
    """Truncated digest of the function name (the mini-VM has no
    overloading, so the name alone identifies the function). Memoized:
    a run calls a handful of names many times."""
    return keccak256(function_name.encode())[:4]


def encode_call(function_name: str, *args) -> bytes:
    items = [selector(function_name)]
    for arg in args:
        if isinstance(arg, (int, bytes)):
            items.append(arg)
        else:
            raise WireError(f"unsupported call argument type {type(arg).__name__}")
    return rlp.encode(items)


def decode_call(data: bytes):
    """Returns (selector, [raw byte args]); handlers convert as needed."""
    try:
        items = rlp.decode(data)
    except rlp.RlpError as exc:
        raise WireError(f"malformed call data: {exc}") from exc
    if not isinstance(items, list) or not items or not isinstance(items[0], bytes) \
            or len(items[0]) != 4:
        raise WireError("call data must be [selector, *args]")
    return items[0], items[1:]
