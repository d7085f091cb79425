"""Executable model of the crosschain coordination contract.

One CoordinationChain instance stands for one coordination contract on
one coordination blockchain: the registry of crosschain transaction
entries (keyed by digest of transaction id and originating sidechain),
the block counter that acts as the global timeout clock, and the
sidechain public key registry.

This is an in-process state machine rather than EVM bytecode; each
method documents the solidity-level behaviour it models. Mutations
happen on the simulation event loop only, reads are pure snapshots.
"""

import enum
from functools import lru_cache
from typing import Dict, Optional

from . import rlp
from .hashing import keccak256
from .wire import (
    MessageKind,
    SidechainId,
    ThresholdMessage,
    encode_message,
)


# Ticks per block of every coordination chain and sidechain that does
# not set its own interval.
DEFAULT_BLOCK_INTERVAL = 10


class CoordinationError(ValueError):
    pass


class ReplayError(CoordinationError):
    pass


class UnknownEntryError(CoordinationError):
    pass


class EntryState(enum.Enum):
    STARTED = "started"
    COMMITTED = "committed"
    IGNORED = "ignored"


class EffectiveStatus(enum.Enum):
    STARTED = "started"
    COMMITTED = "committed"
    IGNORED = "ignored"
    TIMED_OUT = "timed_out"


@lru_cache(maxsize=16384)
def entry_key(crosschain_tx_id, originating_sidechain_id: SidechainId) -> bytes:
    """Registry key: digest of the transaction id and originating
    sidechain id, which ties the id to its sidechain without storing
    the sidechain id itself.

    Memoized on the two frozen ids: every validator derives the key of
    the same few entries on each status read, and the digest is a
    pure-python keccak."""
    return keccak256(crosschain_tx_id.to_bytes()
                     + originating_sidechain_id.to_bytes())


class CoordinationEntry:
    __slots__ = ("state", "timeout_block")

    def __init__(self, state: EntryState, timeout_block: int):
        self.state = state
        self.timeout_block = timeout_block


class _KeyRecord:
    __slots__ = ("current", "previous", "previous_expiry_block")

    def __init__(self, current):
        self.current = current
        self.previous = None
        self.previous_expiry_block = -1


def key_update_payload(sidechain_id: SidechainId, new_key_bytes: bytes) -> bytes:
    """Canonical bytes a sidechain threshold-signs to rotate its key."""
    return rlp.encode([b"pubkey-update", sidechain_id.value, new_key_bytes])


class CoordinationChain:
    """State of one coordination contract plus its chain's block clock."""

    def __init__(self, chain_id: SidechainId, contract_address: bytes,
                 scheme, max_timeout_blocks: int = 1000, grace_window: int = 16,
                 block_interval: int = DEFAULT_BLOCK_INTERVAL):
        self.chain_id = chain_id
        self.contract_address = contract_address
        self.scheme = scheme  # ThresholdScheme used to verify message signatures
        self.max_timeout_blocks = max_timeout_blocks
        self.grace_window = grace_window  # blocks an old sidechain key stays verifiable
        self.block_interval = block_interval  # ticks per block
        self.block_number = 0
        self.entries: Dict[bytes, CoordinationEntry] = {}
        self.pubkeys: Dict[SidechainId, _KeyRecord] = {}

    # -- chain clock --------------------------------------------------------

    def advance_block(self, n: int = 1) -> None:
        if n < 0:
            raise CoordinationError("block number is monotonic")
        self.block_number += n

    # -- public key registry ------------------------------------------------

    def register_pubkey(self, sidechain_id: SidechainId, new_key,
                        authorization=None, bootstrap: bool = False) -> None:
        """Publish a sidechain public key.

        Bootstrap installs the first key without authorization. A
        rotation must carry a threshold signature under the current key
        over the canonical key-update payload; the old key stays
        acceptable for verification for grace_window blocks.
        """
        record = self.pubkeys.get(sidechain_id)
        if bootstrap:
            if record is not None:
                raise CoordinationError("key already registered; bootstrap refused")
            self.pubkeys[sidechain_id] = _KeyRecord(current=new_key)
            return
        if record is None:
            raise CoordinationError("unknown sidechain; bootstrap required")
        payload = key_update_payload(
            sidechain_id, self.scheme.public_key_bytes(new_key))
        if authorization is None or not self.scheme.verify(
                record.current, payload, authorization):
            raise CoordinationError("key update not authorized by current key")
        record.previous = record.current
        record.previous_expiry_block = self.block_number + self.grace_window
        record.current = new_key

    def get_pubkey(self, sidechain_id: SidechainId):
        record = self.pubkeys.get(sidechain_id)
        return None if record is None else record.current

    def _verify_message(self, msg: ThresholdMessage, signature) -> bool:
        record = self.pubkeys.get(msg.originating_sidechain_id)
        if record is None:
            return False
        payload = encode_message(msg)
        if self.scheme.verify(record.current, payload, signature):
            return True
        if (record.previous is not None
                and self.block_number <= record.previous_expiry_block):
            return self.scheme.verify(record.previous, payload, signature)
        return False

    # -- transaction registry -------------------------------------------------

    def _check_addressing(self, msg: ThresholdMessage) -> None:
        if (msg.coordination_blockchain_id != self.chain_id
                or msg.coordination_contract_address != self.contract_address):
            raise CoordinationError("message addressed to a different contract")

    def start(self, msg: ThresholdMessage, signature) -> None:
        """Accept a start message: creates the entry in STARTED with
        timeout_block = current block + requested timeout."""
        if msg.kind is not MessageKind.START:
            raise CoordinationError("not a start message")
        self._check_addressing(msg)
        key = entry_key(msg.crosschain_tx_id, msg.originating_sidechain_id)
        if key in self.entries:
            raise ReplayError(
                "entry already exists for this transaction id and sidechain")
        if msg.timeout_blocks > self.max_timeout_blocks:
            raise CoordinationError(
                f"timeout {msg.timeout_blocks} exceeds configured maximum "
                f"{self.max_timeout_blocks}")
        if not self._verify_message(msg, signature):
            raise CoordinationError("start signature rejected")
        self.entries[key] = CoordinationEntry(
            state=EntryState.STARTED,
            timeout_block=self.block_number + msg.timeout_blocks)

    def _terminal_transition(self, msg: ThresholdMessage, signature,
                             target: EntryState) -> None:
        self._check_addressing(msg)
        key = entry_key(msg.crosschain_tx_id, msg.originating_sidechain_id)
        entry = self.entries.get(key)
        if entry is None:
            raise UnknownEntryError("no entry for this transaction")
        if entry.state is not EntryState.STARTED:
            raise CoordinationError(
                f"entry already terminal ({entry.state.value})")
        if self.block_number > entry.timeout_block:
            raise CoordinationError("past the transaction timeout block")
        if not self._verify_message(msg, signature):
            raise CoordinationError(f"{target.value} signature rejected")
        entry.state = target

    def commit(self, msg: ThresholdMessage, signature) -> None:
        """Accepted while block_number <= timeout_block and the entry is
        still STARTED; the boundary block itself is commitable."""
        if msg.kind is not MessageKind.COMMIT:
            raise CoordinationError("not a commit message")
        self._terminal_transition(msg, signature, EntryState.COMMITTED)

    def ignore(self, msg: ThresholdMessage, signature) -> None:
        """Mirror of commit; terminates the transaction early."""
        if msg.kind is not MessageKind.IGNORE:
            raise CoordinationError("not an ignore message")
        self._terminal_transition(msg, signature, EntryState.IGNORED)

    def effective_status(self, key: bytes,
                         at_block: Optional[int] = None) -> EffectiveStatus:
        """Status as observed at a block: STARTED entries past their
        timeout block report TIMED_OUT, terminal states are immutable."""
        entry = self.entries.get(key)
        if entry is None:
            raise UnknownEntryError("no entry for this key")
        at_block = self.block_number if at_block is None else at_block
        if entry.state is EntryState.COMMITTED:
            return EffectiveStatus.COMMITTED
        if entry.state is EntryState.IGNORED:
            return EffectiveStatus.IGNORED
        if at_block > entry.timeout_block:
            return EffectiveStatus.TIMED_OUT
        return EffectiveStatus.STARTED

    def status_of(self, crosschain_tx_id, originating_sidechain_id,
                  at_block: Optional[int] = None) -> EffectiveStatus:
        return self.effective_status(
            entry_key(crosschain_tx_id, originating_sidechain_id), at_block)

    def has_entry(self, crosschain_tx_id, originating_sidechain_id) -> bool:
        return entry_key(crosschain_tx_id, originating_sidechain_id) in self.entries

    def entry_timeout(self, crosschain_tx_id, originating_sidechain_id) -> int:
        entry = self.entries.get(
            entry_key(crosschain_tx_id, originating_sidechain_id))
        if entry is None:
            raise UnknownEntryError("no entry for this transaction")
        return entry.timeout_block

    def timeout_tick(self, crosschain_tx_id, originating_sidechain_id) -> int:
        """The global timeout in ticks: the first tick at which the
        entry, if still started, reads TIMED_OUT."""
        return ((self.entry_timeout(crosschain_tx_id, originating_sidechain_id) + 1)
                * self.block_interval)
