"""Per-sidechain ledger: contracts as native handlers over key-value
storage, lock states with provisional overlays, account balances and
nonces, and the engine that matches emitted crosschain calls against
the signed transaction tree.

Contracts are deterministic python functions registered by handler id
(the protocol, not EVM semantics, is the subject here). A handler runs
against a host that scopes storage access to the target contract and
records all effects in a provisional overlay; base state is only
touched when a lock is finalized with a commit decision, or immediately
for ordinary single-chain transactions.
"""

import enum
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .hashing import keccak256
from .wire import (
    CrosschainTransaction,
    SidechainId,
    TxType,
    decode_call,
)

# execution failure reason codes (shared vocabulary with the protocol engine)
LOCK_CONTENTION = "lock-contention"
NOT_LOCKABLE = "not-lockable"
NOT_LOCKED = "not-locked"
CALL_MISMATCH = "call-mismatch"
NONCE_MISMATCH = "nonce-mismatch"
HANDLER_REVERT = "handler-revert"
UNKNOWN_CONTRACT = "unknown-contract"
UNKNOWN_HANDLER = "unknown-handler"
UNKNOWN_SELECTOR = "unknown-selector"
MALFORMED_CALL = "malformed-call-data"
INSUFFICIENT_BALANCE = "insufficient-balance"
VIEW_WRITE = "view-write-forbidden"
LOCKED_VIEW = "view-of-locked-contract"
MISSING_VIEW_RESULT = "missing-view-result"


class ExecutionError(Exception):
    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


class LockStatus(enum.Enum):
    UNLOCKED = "unlocked"
    LOCKED = "locked"


class LockDecision(enum.Enum):
    COMMIT = "commit"
    IGNORE = "ignore"


class LockedViewPolicy(enum.Enum):
    FAIL_IF_LOCKED = "fail"
    ASSUME_IGNORED = "assume-ignored"
    ASSUME_COMMITTED = "assume-committed"


class LockHolder:
    """Identity of the crosschain transaction holding a contract lock;
    equal holders name the same transaction."""

    __slots__ = ("crosschain_tx_id", "originating_sidechain_id", "coordination_ref")

    def __init__(self, crosschain_tx_id, originating_sidechain_id: SidechainId,
                 coordination_ref: Tuple[SidechainId, bytes]):
        self.crosschain_tx_id = crosschain_tx_id
        self.originating_sidechain_id = originating_sidechain_id
        self.coordination_ref = coordination_ref

    def _key(self) -> tuple:
        return (self.crosschain_tx_id, self.originating_sidechain_id, self.coordination_ref)

    def __eq__(self, other):
        if type(other) is not LockHolder:
            return NotImplemented
        return self._key() == other._key()

    @classmethod
    def of_tx(cls, tx: CrosschainTransaction) -> "LockHolder":
        return cls(
            crosschain_tx_id=tx.crosschain_tx_id,
            originating_sidechain_id=tx.originating_sidechain_id,
            coordination_ref=(tx.coordination_blockchain_id,
                              tx.coordination_contract_address))


@dataclass
class ProvisionalOverlay:
    """Uncommitted effects of one transaction: storage writes for the
    target contract plus signed balance movements by address."""

    storage_delta: Dict[int, int] = field(default_factory=dict)
    balance_deltas: Dict[bytes, int] = field(default_factory=dict)

    def bump_balance(self, address: bytes, delta: int) -> None:
        self.balance_deltas[address] = self.balance_deltas.get(address, 0) + delta


class LockState:
    __slots__ = ("status", "holder", "provisional")

    def __init__(self, status: LockStatus = LockStatus.UNLOCKED,
                 holder: Optional[LockHolder] = None,
                 provisional: Optional[ProvisionalOverlay] = None):
        self.status = status
        self.holder = holder
        self.provisional = provisional


class Contract:
    __slots__ = ("address", "handler_id", "lockable", "storage", "lock")

    def __init__(self, address: bytes, handler_id: str, lockable: bool,
                 storage: Optional[Dict[int, int]] = None):
        self.address = address
        self.handler_id = handler_id
        self.lockable = lockable
        self.storage = {} if storage is None else storage
        self.lock = LockState()


class CallFrame:
    """The signed subordinate nodes one function call must emit, in
    order, plus collected view results keyed by position."""

    __slots__ = ("expected", "cursor", "view_results")

    def __init__(self, expected: Sequence[CrosschainTransaction]):
        self.expected = expected
        self.cursor = 0
        self.view_results: Dict[int, bytes] = {}

    @classmethod
    def for_tx(cls, tx: CrosschainTransaction) -> "CallFrame":
        return cls(expected=tx.subordinates)

    def view_positions(self) -> List[int]:
        return [i for i, node in enumerate(self.expected)
                if node.tx_type is TxType.SUBORDINATE_VIEW]

    def tx_positions(self) -> List[int]:
        return [i for i, node in enumerate(self.expected)
                if node.tx_type is not TxType.SUBORDINATE_VIEW]


class ExecutionOutcome:
    __slots__ = ("overlay", "result")

    def __init__(self, overlay: ProvisionalOverlay, result: bytes = b""):
        self.overlay = overlay
        self.result = result


def result_bytes(value) -> bytes:
    """Canonical byte form of a handler return value."""
    if value is None:
        return b""
    if isinstance(value, bytes):
        return value
    if isinstance(value, bool):
        return b"\x01" if value else b""
    if isinstance(value, int):
        if value < 0:
            raise ExecutionError(HANDLER_REVERT, "negative result")
        return value.to_bytes((value.bit_length() + 7) // 8, "big") if value else b""
    raise ExecutionError(HANDLER_REVERT, f"unsupported result type {type(value)}")


class HandlerHost:
    """The interface a native handler sees. Storage access is scoped to
    the executing contract; balance moves and writes land in the
    overlay, never directly in base state.

    Two settings shape a call. A host that is not ``writable`` runs a
    view: storage writes, value transfers and subordinate transactions
    raise view-write-forbidden. A host with ``build`` runs a dry run:
    every crosschain call goes to ``build(is_view, chain, to, data)``,
    which returns the call's result bytes. A host without ``build``
    matches each crosschain call against the next entry of the signed
    frame. The four combinations are execution, the dry run of a
    transaction, the dry run of a view and a view read against its
    frame."""

    def __init__(self, state: "SidechainState", contract: Contract,
                 overlay: ProvisionalOverlay, frame: CallFrame, writable: bool,
                 build: Optional[Callable], caller: bytes, value: int,
                 base_overlay: Optional[ProvisionalOverlay] = None):
        self._state = state
        self._contract = contract
        self._overlay = overlay
        self._frame = frame
        self._writable = writable
        self._build = build
        self._base_overlay = base_overlay  # pre-existing lock overlay for reads
        self.caller = caller
        self.value = value

    # -- introspection -------------------------------------------------------

    @property
    def self_address(self) -> bytes:
        return self._contract.address

    # -- storage -------------------------------------------------------------

    def storage_get(self, key: int) -> int:
        if key in self._overlay.storage_delta:
            return self._overlay.storage_delta[key]
        if self._base_overlay is not None and key in self._base_overlay.storage_delta:
            return self._base_overlay.storage_delta[key]
        return self._contract.storage.get(key, 0)

    def storage_set(self, key: int, value: int) -> None:
        self._require_writable("storage write")
        self._overlay.storage_delta[key] = value

    # -- value ---------------------------------------------------------------

    def balance_of(self, address: bytes) -> int:
        base = self._state.balances.get(address, 0)
        if self._base_overlay is not None:
            base += self._base_overlay.balance_deltas.get(address, 0)
        return base + self._overlay.balance_deltas.get(address, 0)

    def transfer(self, to: bytes, amount: int) -> None:
        """Move value out of the executing contract's balance."""
        self._move_value(self._contract.address, to, amount)

    def transfer_from_caller(self, to: bytes, amount: int) -> None:
        """Move value out of the calling account; authority comes from
        that account's signature on the executing transaction."""
        self._move_value(self.caller, to, amount)

    def _move_value(self, src: bytes, dst: bytes, amount: int) -> None:
        self._require_writable("value transfer")
        if amount < 0:
            raise ExecutionError(HANDLER_REVERT, "negative transfer")
        if self.balance_of(src) < amount:
            raise ExecutionError(INSUFFICIENT_BALANCE,
                                 f"{src.hex()} short by {amount - self.balance_of(src)}")
        self._overlay.bump_balance(src, -amount)
        self._overlay.bump_balance(dst, amount)

    def _require_writable(self, what: str) -> None:
        if not self._writable:
            raise ExecutionError(VIEW_WRITE, what)

    # -- crosschain calls ------------------------------------------------------

    def emit_subordinate_tx(self, chain: SidechainId, to: bytes, data: bytes) -> None:
        """A state-updating call to a contract on another sidechain."""
        self._require_writable("subordinate transaction from a view")
        self._crosschain_call(False, chain, to, data)

    def call_subordinate_view(self, chain: SidechainId, to: bytes,
                              data: bytes) -> bytes:
        """A read-only call to a contract on another sidechain; returns
        the (signed, pre-collected) result bytes."""
        return self._crosschain_call(True, chain, to, data)

    def _crosschain_call(self, is_view: bool, chain: SidechainId, to: bytes,
                         data: bytes) -> bytes:
        if self._build is not None:
            return self._build(is_view, chain, to, data)
        frame = self._frame
        if frame.cursor >= len(frame.expected):
            raise ExecutionError(
                CALL_MISMATCH, "call emitted beyond the signed call list")
        expected = frame.expected[frame.cursor]
        if not ((expected.tx_type is TxType.SUBORDINATE_VIEW) == is_view
                and expected.target_sidechain_id == chain
                and expected.to == to and expected.data == data):
            raise ExecutionError(
                CALL_MISMATCH,
                f"emitted {'view' if is_view else 'tx'} to "
                f"{chain.short()}/{to.hex()[:8]} does not match signed entry "
                f"{frame.cursor}")
        position = frame.cursor
        frame.cursor += 1
        if not is_view:
            return b""
        if position not in frame.view_results:
            raise ExecutionError(MISSING_VIEW_RESULT, f"position {position}")
        return frame.view_results[position]


@lru_cache(maxsize=1024)
def _contract_address(deployer: bytes, counter: int,
                      sidechain_id: SidechainId) -> bytes:
    """Digest of deployer, deployment counter and sidechain id; the
    same few addresses recur in every world one scenario builds."""
    return keccak256(deployer + counter.to_bytes(8, "big")
                     + sidechain_id.to_bytes())[12:]


class SidechainState:
    """Canonical ledger of one sidechain (finality is instant, so all
    honest validators share this view)."""

    def __init__(self, sidechain_id: SidechainId, handlers: Dict[str, dict]):
        self.sidechain_id = sidechain_id
        self.handlers = handlers
        self.contracts: Dict[bytes, Contract] = {}
        self.balances: Dict[bytes, int] = {}
        self.nonces: Dict[bytes, int] = {}
        self._deploy_counter = 0

    # -- deployment ------------------------------------------------------------

    def deploy(self, handler_id: str, lockable: bool = False,
               storage: Optional[Dict[int, int]] = None, balance: int = 0,
               deployer: bytes = b"\x00" * 20) -> bytes:
        """Create a contract; nonlockable is the default. The address is
        the digest of deployer and a per-chain deployment counter."""
        if handler_id not in self.handlers:
            raise ExecutionError(UNKNOWN_HANDLER, handler_id)
        address = _contract_address(deployer, self._deploy_counter,
                                    self.sidechain_id)
        self._deploy_counter += 1
        self.contracts[address] = Contract(
            address=address, handler_id=handler_id, lockable=lockable,
            storage=dict(storage or {}))
        if balance:
            self.balances[address] = self.balances.get(address, 0) + balance
        return address

    def set_balance(self, address: bytes, amount: int) -> None:
        self.balances[address] = amount

    def contract_at(self, address: bytes) -> Contract:
        contract = self.contracts.get(address)
        if contract is None:
            raise ExecutionError(UNKNOWN_CONTRACT, address.hex())
        return contract

    def expected_nonce(self, account: bytes) -> int:
        return self.nonces.get(account, 0)

    def _run(self, contract: Contract, data: bytes, caller: bytes, value: int,
             frame: CallFrame, writable: bool = True,
             build: Optional[Callable] = None,
             base_overlay: Optional[ProvisionalOverlay] = None
             ) -> ExecutionOutcome:
        """Run one call of contract's handler on a fresh overlay: move
        the call's value from caller to the contract, dispatch data to
        its function, and require every call in frame to be emitted."""
        overlay = ProvisionalOverlay()
        host = HandlerHost(self, contract, overlay, frame, writable, build,
                           caller=caller, value=value, base_overlay=base_overlay)
        if value:
            host._move_value(caller, contract.address, value)
        table = self.handlers.get(contract.handler_id)
        if table is None:
            raise ExecutionError(UNKNOWN_HANDLER, contract.handler_id)
        try:
            sel, args = decode_call(data)
        except Exception as exc:
            raise ExecutionError(MALFORMED_CALL, str(exc)) from exc
        fn = table.get(sel)
        if fn is None:
            raise ExecutionError(UNKNOWN_SELECTOR,
                                 f"{contract.handler_id}/{sel.hex()}")
        try:
            result = fn(host, args)
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError(HANDLER_REVERT, str(exc)) from exc
        if frame.cursor != len(frame.expected):
            raise ExecutionError(
                CALL_MISMATCH,
                f"only {frame.cursor} of {len(frame.expected)} signed calls emitted")
        return ExecutionOutcome(overlay=overlay, result=result_bytes(result))

    # -- crosschain execution ----------------------------------------------------

    def execute_local(self, tx: CrosschainTransaction, frame: CallFrame,
                      sender: bytes) -> ExecutionOutcome:
        """Run the function call of an originating or subordinate
        transaction against current state. Returns the provisional
        overlay without applying it; raises ExecutionError on lock
        contention, nonlockable targets, nonce or call-list mismatches
        and handler reverts."""
        if tx.execution_sidechain_id != self.sidechain_id:
            raise ExecutionError(HANDLER_REVERT, "transaction targets another chain")
        contract = self.contract_at(tx.to)
        holder = LockHolder.of_tx(tx)
        if not contract.lockable:
            raise ExecutionError(
                NOT_LOCKABLE,
                f"crosschain transaction against nonlockable {tx.to.hex()[:8]}")
        if contract.lock.status is LockStatus.LOCKED and contract.lock.holder != holder:
            raise ExecutionError(LOCK_CONTENTION, tx.to.hex()[:8])
        if tx.nonce != self.expected_nonce(sender):
            raise ExecutionError(
                NONCE_MISMATCH,
                f"got {tx.nonce}, expected {self.expected_nonce(sender)}")
        return self._run(contract, tx.data, sender, tx.value, frame)

    def dry_run(self, to: bytes, data: bytes, sender: bytes, value: int,
                build: Callable, view: bool = False) -> ExecutionOutcome:
        """Build-mode execution: every crosschain call the handler makes
        goes to build(is_view, chain, to, data) with concrete parameters
        instead of being matched. A view (view=True) may not write."""
        return self._run(self.contract_at(to), data, sender, value,
                         CallFrame(expected=[]), writable=not view, build=build)

    # -- ordinary same-chain transactions -------------------------------------

    def apply_local_tx(self, to: bytes, data: bytes, sender: bytes,
                       nonce: int, value: int = 0) -> bytes:
        """A plain single-chain transaction: no locking, effects applied
        immediately. Crosschain host calls are unavailable."""
        contract = self.contract_at(to)
        if nonce != self.expected_nonce(sender):
            raise ExecutionError(NONCE_MISMATCH,
                                 f"got {nonce}, expected {self.expected_nonce(sender)}")
        if (contract.lock.status is LockStatus.LOCKED):
            raise ExecutionError(LOCK_CONTENTION, to.hex()[:8])
        outcome = self._run(contract, data, sender, value, CallFrame(expected=[]))
        self.nonces[sender] = nonce + 1
        self._apply_overlay(contract, outcome.overlay)
        return outcome.result

    # -- views --------------------------------------------------------------

    def read_view(self, address: bytes, data: bytes,
                  policy: LockedViewPolicy = LockedViewPolicy.FAIL_IF_LOCKED,
                  frame: Optional[CallFrame] = None,
                  caller: bytes = b"\x00" * 20,
                  same_holder: Optional[LockHolder] = None) -> bytes:
        """Read-only call. On a locked contract the policy decides:
        fail, read base state (assume the lock's transaction will be
        ignored) or read base plus overlay (assume it commits). A view
        that belongs to the lock-holding transaction always sees its own
        provisional writes."""
        contract = self.contract_at(address)
        base_overlay = None
        if contract.lock.status is LockStatus.LOCKED:
            if same_holder is not None and contract.lock.holder == same_holder:
                base_overlay = contract.lock.provisional
            elif policy is LockedViewPolicy.FAIL_IF_LOCKED:
                raise ExecutionError(LOCKED_VIEW, address.hex()[:8])
            elif policy is LockedViewPolicy.ASSUME_COMMITTED:
                base_overlay = contract.lock.provisional
            # ASSUME_IGNORED reads base state unchanged
        return self._run(contract, data, caller, 0, frame or CallFrame(expected=[]),
                         writable=False, base_overlay=base_overlay).result

    # -- locking (contract lock states) ----------------------------------------

    def lock(self, address: bytes, holder: LockHolder,
             overlay: ProvisionalOverlay) -> None:
        """Lock on mining; fail-if-locked, no queuing."""
        contract = self.contract_at(address)
        if not contract.lockable:
            raise ExecutionError(NOT_LOCKABLE, address.hex()[:8])
        if contract.lock.status is LockStatus.LOCKED:
            raise ExecutionError(LOCK_CONTENTION, address.hex()[:8])
        contract.lock = LockState(status=LockStatus.LOCKED, holder=holder,
                                  provisional=overlay)

    def finalize(self, address: bytes, decision: LockDecision) -> None:
        """Unlock; commit applies the provisional overlay, ignore
        discards it leaving base state untouched."""
        contract = self.contract_at(address)
        if contract.lock.status is not LockStatus.LOCKED:
            raise ExecutionError(NOT_LOCKED, address.hex()[:8])
        overlay = contract.lock.provisional
        if decision is LockDecision.COMMIT:
            self._apply_overlay(contract, overlay)
        contract.lock = LockState()

    def _apply_overlay(self, contract: Contract, overlay: ProvisionalOverlay) -> None:
        for key, value in overlay.storage_delta.items():
            contract.storage[key] = value
        for address, delta in overlay.balance_deltas.items():
            self.balances[address] = self.balances.get(address, 0) + delta

    def locked_by(self, address: bytes) -> Optional[LockHolder]:
        contract = self.contract_at(address)
        return contract.lock.holder if contract.lock.status is LockStatus.LOCKED else None

    # -- audit helpers ----------------------------------------------------------

    def total_value(self) -> int:
        return sum(self.balances.values())

    def storage_dump(self, address: bytes) -> Dict[str, str]:
        contract = self.contract_at(address)
        return {hex(k): hex(v) for k, v in sorted(contract.storage.items())}
