"""Node roles and message flows for atomic crosschain transactions.

A World wires sidechains (each a validator set sharing an
instantly-final ledger), coordination chains, and multichain nodes onto
one deterministic event loop. Coordinator logic runs as generator
flows that yield one of two awaits: Collect (replies to requests, or
ready and error messages keyed by subordinate transaction hash) and
Sleep. Validators answer signing and mining requests only after their
own validation pipeline passes. Every labelled protocol step is traced
with a machine-readable name, which is also the namespace fault
triggers bind to.

Every validator admits a subordinate transaction or view the same way
(ValidatorNode._admit), when its member starts the sub or view flow and
again when it is asked to mine the transaction or sign the view result:
one account signed the whole tree (signer-mismatch), the signer may
submit transactions or views on this sidechain (permission-denied;
traced as sub:/view:permission_checked), the coordination contract is
trusted (untrusted-coordination; trust_checked), its entry for the
transaction is still started (transaction-not-active) and every view
sidechain below has a registered key (pubkey-unavailable; both traced
as status_checked).

A refusal travels one way. Every check raises EngineError with a reason
code and, for the originating flow's failure record, a detail; a ledger
ExecutionError becomes an EngineError at the call that raised it. One
except at each boundary reports it: a validator answers a signing or
mining request with {"ok": False, "reason": ...} after tracing
val:refuse_<kind>, a coordinator leaves its own share out of a signing
round, and each flow records a failure. The originating flow then fails
the handle (and ignores a started transaction), the subordinate flow
sends subtx_error to the originating coordinator, and the view flow
replies to its requester with a refused view_reply.

The atomicity contract: for any fault schedule, the contracts finalized
with a commit decision for one crosschain transaction are either all of
its participating contracts or none of them, and every node's decision
equals the coordination contract's terminal status. The World checks it
on the trace's lock and finalize records; its audit_log derives from them.
"""

from dataclasses import replace
from functools import lru_cache
from typing import Callable, Collection, Dict, List, Optional, Sequence, Set, Tuple

from . import wire
from .accounts import AccountKey
from .coordination import (
    DEFAULT_BLOCK_INTERVAL,
    CoordinationChain,
    CoordinationError,
    EffectiveStatus,
    UnknownEntryError,
)
from .handlers import HANDLERS
from .sidechain import (
    CallFrame,
    ExecutionError,
    LockDecision,
    LockHolder,
    LockedViewPolicy,
    SidechainState,
)
from .simnet import (
    CORRUPT_SHARE,
    Message,
    NodeCrashed,
    SimNet,
    TraceRecord,
)
from .threshold import SignatureShare, ThresholdConfig, get_scheme
from .wire import (
    CrosschainTransaction,
    CrosschainTxId,
    MessageKind,
    SidechainId,
    ThresholdMessage,
    TxType,
    encode_message,
)

# --- failure reason codes ---------------------------------------------------

PERMISSION_DENIED = "permission-denied"
UNTRUSTED_COORDINATION = "untrusted-coordination"
MISSING_SIDECHAIN = "missing-sidechain"
SIGNER_MISMATCH = "signer-mismatch"
PUBKEY_UNAVAILABLE = "pubkey-unavailable"
START_SIGNING_FAILED = "start-signing-failed"
START_REJECTED = "start-rejected"
VIEW_FAILED = "view-failed"
MINING_REJECTED = "mining-rejected"
SUBORDINATE_FAILED = "subordinate-failed"
READY_TIMEOUT = "ready-timeout"
READY_BAD_SIGNATURE = "ready-bad-signature"
COMMIT_SIGNING_FAILED = "commit-signing-failed"
COMMIT_REJECTED = "commit-rejected"
TX_NOT_ACTIVE = "transaction-not-active"
TIMEOUT_UNACCEPTABLE = "timeout-unacceptable"
READY_SIGNING_FAILED = "ready-signing-failed"
VIEW_SIGNING_FAILED = "view-result-signing-failed"
VIEW_RESULT_BAD_SIGNATURE = "view-result-bad-signature"
RESULT_MISMATCH = "result-mismatch"
STALE_VIEW_RESULT = "stale-view-result"
NOT_MINED = "not-mined"

# --- protocol step names (fault-trigger namespace) -----------------------------

ORIGINATING_STEPS = tuple(f"orig:{s}" for s in (
    "received", "permission_checked", "trust_checked", "coverage_checked",
    "signer_checked", "pubkeys_fetched", "start_signed", "start_submitted",
    "views_dispatched", "views_collected", "executed", "mined",
    "subtx_dispatched", "ready_collected", "commit_signed",
    "commit_submitted", "check_broadcast"))

SUBORDINATE_STEPS = tuple(f"sub:{s}" for s in (
    "received", "permission_checked", "trust_checked", "status_checked",
    "views_dispatched", "views_collected", "executed", "mined",
    "ready_signed", "children_dispatched", "ready_sent"))

VIEW_STEPS = tuple(f"view:{s}" for s in (
    "received", "permission_checked", "trust_checked", "status_checked",
    "children_collected", "executed", "result_signed"))

ALL_STEPS = ORIGINATING_STEPS + SUBORDINATE_STEPS + VIEW_STEPS

# Crash-at-step expectations distilled from the failure analysis: a
# coordinator crash strictly before the commit message is accepted on
# the coordination contract must leave the transaction uncommitted
# (never started, ignored, or timed out); a crash at or after
# acceptance must still end with every participant committing.
_ORIG_COMMIT_POINT = ORIGINATING_STEPS.index("orig:commit_submitted")
_SUB_READY_POINT = SUBORDINATE_STEPS.index("sub:ready_sent")


def expected_crash_outcome(step: str) -> str:
    """'committed' or 'not_committed' for a coordinator crash at step."""
    if step in ORIGINATING_STEPS:
        return ("committed"
                if ORIGINATING_STEPS.index(step) >= _ORIG_COMMIT_POINT
                else "not_committed")
    if step in SUBORDINATE_STEPS:
        return ("committed"
                if SUBORDINATE_STEPS.index(step) >= _SUB_READY_POINT
                else "not_committed")
    raise ValueError(f"no crash expectation for step {step}")


class EngineError(Exception):
    """A refusal or failure: reason is its code, detail the payload of
    the originating flow's failure record."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}: {detail}" if detail else reason)


class BuildError(EngineError):
    pass


def _check(ok: bool, reason: str, detail: str = "") -> None:
    """Refuse with reason unless ok holds."""
    if not ok:
        raise EngineError(reason, detail)


def _common_signer(tx: CrosschainTransaction) -> bytes:
    """The one account that signed every node of tx."""
    try:
        return wire.verify_common_signer(tx)
    except wire.WireError:
        raise EngineError(SIGNER_MISMATCH)


# --- awaits yielded by coordinator flows ---------------------------------------

class Collect:
    """Resume when every key has a value, when ``enough`` holds for the
    values collected so far, or at the deadline; ``enough`` sees every
    arrival, the one that completes the key set too. Keys are request ids,
    whose values are (sender, body) replies, or subordinate transaction
    hashes, whose values are ready or error message bodies."""

    __slots__ = ("keys", "deadline", "enough")

    def __init__(self, keys: Collection, deadline: int,
                 enough: Optional[Callable] = None):
        self.keys = keys
        self.deadline = deadline
        self.enough = enough


class Sleep:
    __slots__ = ("ticks",)

    def __init__(self, ticks: int):
        self.ticks = ticks


class TxHandle:
    """Resolves to ('committed',) or ('failed', reason); stays None if
    the submitting coordinator crashed before answering."""

    __slots__ = ("crosschain_tx_id", "originating_sidechain_id",
                 "coordination_ref", "alias", "outcome")

    def __init__(self, crosschain_tx_id: CrosschainTxId,
                 originating_sidechain_id: SidechainId,
                 coordination_ref: Tuple[SidechainId, bytes],
                 alias: str = "", outcome: Optional[tuple] = None):
        self.crosschain_tx_id = crosschain_tx_id
        self.originating_sidechain_id = originating_sidechain_id
        self.coordination_ref = coordination_ref
        self.alias = alias
        self.outcome = outcome

    @property
    def committed(self) -> bool:
        return self.outcome == ("committed",)

    @property
    def failure_reason(self) -> Optional[str]:
        if self.outcome and self.outcome[0] == "failed":
            return self.outcome[1]
        return None


class WorldConfig:
    """World-wide settings; ``__slots__`` lists every settable key."""

    __slots__ = ("scheme", "intra_latency", "cross_latency", "jitter",
                 "signing_round_timeout", "freshness_window", "max_lock_horizon",
                 "resolve_timer_lag", "locked_view_policy")

    def __init__(self, scheme: str = "modp",
                 intra_latency: int = 1,      # hops between validators of one sidechain
                 cross_latency: int = 3,      # every other hop
                 jitter: int = 0,
                 signing_round_timeout: int = 30,
                 freshness_window: int = 8,   # blocks a view result block number may lag
                 max_lock_horizon: int = 500,  # largest remaining timeout validators accept
                 resolve_timer_lag: int = 2,  # ticks past the timeout block boundary
                 locked_view_policy: LockedViewPolicy = LockedViewPolicy.FAIL_IF_LOCKED):
        self.scheme = scheme
        self.intra_latency = intra_latency
        self.cross_latency = cross_latency
        self.jitter = jitter
        self.signing_round_timeout = signing_round_timeout
        self.freshness_window = freshness_window
        self.max_lock_horizon = max_lock_horizon
        self.resolve_timer_lag = resolve_timer_lag
        self.locked_view_policy = locked_view_policy


class _Context:
    """A node's memory of a crosschain transaction it participated in."""

    __slots__ = ("holder", "locked", "timer_armed")

    def __init__(self, holder: LockHolder):
        self.holder = holder
        self.locked: Set[bytes] = set()
        self.timer_armed = False


class _CoordinationNode:
    """Pseudo node fronting one coordination chain so submissions ride
    the simulated network (reads stay local snapshots)."""

    def __init__(self, world: "World", chain: CoordinationChain, node_id: str):
        self.world = world
        self.chain = chain
        self.node_id = node_id

    def on_message(self, msg: Message) -> None:
        if msg.mtype != "submit":
            return
        op = msg.body["op"]
        tmsg: ThresholdMessage = msg.body["message"]
        sig = msg.body["signature"]
        try:
            if op not in ("start", "commit", "ignore"):
                raise CoordinationError(f"unknown op {op}")
            getattr(self.chain, op)(tmsg, sig)
            body = {"ok": True, "op": op}
        except CoordinationError as exc:
            body = {"ok": False, "op": op, "error": str(exc)}
        self.world.reply(self.node_id, msg, "submit_reply", body)


class _FlowRec:
    __slots__ = ("fid", "gen", "awaiting", "generation", "collected")

    def __init__(self, fid: int, gen):
        self.fid = fid
        self.gen = gen
        self.awaiting = None
        self.generation = 0
        self.collected: dict = {}


class ValidatorNode:
    """One sidechain validator. It holds a key share, answers signing
    and mining requests after independently re-validating them, keeps
    per-transaction contexts with local timers, and (when it is the
    submitting multichain node's member) runs coordinator flows."""

    def __init__(self, world: "World", sidechain: "Sidechain", index: int):
        self.world = world
        self.sidechain = sidechain
        self.index = index
        self.node_id = f"{sidechain.sidechain_id.short()}:v{index}"
        self.key_share = None  # assigned by Sidechain key setup
        self.contexts: Dict[tuple, _Context] = {}
        self._flows: Dict[int, _FlowRec] = {}
        self._next_fid = 0
        self._waiting: Dict[object, _FlowRec] = {}  # Collect key -> flow

    # -- plumbing -----------------------------------------------------------

    @property
    def net(self) -> SimNet:
        return self.world.net

    @property
    def state(self) -> SidechainState:
        return self.sidechain.state

    def step(self, reason: str, payload=None) -> None:
        self.net.step(self.node_id, reason, payload)

    def send(self, recipient: str, mtype: str, body: dict) -> None:
        self.world.send(Message(self.node_id, recipient, mtype, body))

    def request(self, recipient: str, mtype: str, body: dict) -> int:
        rid = self.world.next_req_id()
        self.world.send(Message(self.node_id, recipient, mtype, body, req_id=rid))
        return rid

    def reply(self, msg: Message, mtype: str, body: dict) -> None:
        self.world.reply(self.node_id, msg, mtype, body)

    # -- flow machinery ------------------------------------------------------

    def start_flow(self, gen) -> None:
        self._next_fid += 1
        rec = _FlowRec(fid=self._next_fid, gen=gen)
        self._flows[rec.fid] = rec
        self._advance(rec, None)

    def _advance(self, rec: _FlowRec, value) -> None:
        rec.awaiting = None
        rec.generation += 1
        rec.collected = {}
        try:
            awaited = rec.gen.send(value)
        except StopIteration:
            self._flows.pop(rec.fid, None)
            return
        except NodeCrashed:
            self._flows.pop(rec.fid, None)
            return
        rec.awaiting = awaited
        if isinstance(awaited, Sleep):
            self.net.set_timer(self.node_id, ("flow", rec.fid, rec.generation),
                               self.net.tick + awaited.ticks)
        elif isinstance(awaited, Collect):
            if not awaited.keys:
                self._advance(rec, {})
                return
            for key in awaited.keys:
                self._waiting[key] = rec
            self.net.set_timer(self.node_id, ("flow", rec.fid, rec.generation),
                               awaited.deadline)
        else:
            raise TypeError(f"flow yielded unexpected {awaited!r}")

    def _finish_await(self, rec: _FlowRec) -> None:
        if isinstance(rec.awaiting, Collect):
            for key in rec.awaiting.keys:
                if self._waiting.get(key) is rec:
                    self._waiting.pop(key)
        self._advance(rec, rec.collected)

    def _collect(self, key, value) -> None:
        rec = self._waiting.get(key)
        if rec is None:
            return
        rec.collected[key] = value
        aw = rec.awaiting
        if (aw.enough is not None and aw.enough(rec.collected)
                or len(rec.collected) == len(aw.keys)):
            self._finish_await(rec)

    def on_timer(self, tag) -> None:
        if isinstance(tag, tuple) and tag and tag[0] == "flow":
            _, fid, generation = tag
            rec = self._flows.get(fid)
            if rec is not None and rec.generation == generation and rec.awaiting:
                self._finish_await(rec)
            return
        if isinstance(tag, tuple) and tag and tag[0] == "resolve":
            self._resolve_context(tag[1])

    def on_message(self, msg: Message) -> None:
        if msg.reply_to is not None:
            self._collect(msg.reply_to, (msg.sender, msg.body))
            return
        mtype = msg.mtype
        if mtype == "sign_request":
            self._on_sign_request(msg)
        elif mtype == "mine_request":
            self._on_mine_request(msg)
        elif mtype == "process_subtx":
            self.start_flow(self._subordinate_flow(msg))
        elif mtype == "process_view":
            self.start_flow(self._view_flow(msg))
        elif mtype == "subtx_ready":
            ready: ThresholdMessage = msg.body["message"]
            self._collect(ready.transaction_hash, msg.body)
        elif mtype == "subtx_error":
            self._collect(msg.body["tx_hash"], msg.body)
        elif mtype == "check_coordination":
            self._on_check(msg)

    # -- shared validation helpers ----------------------------------------------

    def _tx_permitted(self, signer: bytes) -> bool:
        allowed = self.sidechain.tx_allowed
        return allowed is None or signer in allowed

    def _admit(self, tx: CrosschainTransaction, allowed: Optional[Set[bytes]],
               flow: Optional[str] = None) -> bytes:
        """The checks every validator repeats before it executes a
        subordinate transaction or view: one signer for the whole tree,
        the signer in ``allowed`` (None allows everyone), a trusted
        coordination contract, an active entry on it, and a registered
        key for every view sidechain below. Returns the signer. With a
        flow name ("sub" or "view") it traces that flow's
        permission_checked, trust_checked and status_checked steps as
        each check passes."""
        signer = _common_signer(tx)
        _check(allowed is None or signer in allowed, PERMISSION_DENIED)
        if flow:
            self.step(f"{flow}:permission_checked")
        _check(self._trusted(tx), UNTRUSTED_COORDINATION)
        if flow:
            self.step(f"{flow}:trust_checked")
        _check(self._tx_active(tx), TX_NOT_ACTIVE)
        _check(self._pubkeys_available(tx, views_only=True), PUBKEY_UNAVAILABLE)
        if flow:
            self.step(f"{flow}:status_checked")
        return signer

    def _signed_by(self, chain: CoordinationChain, msg: ThresholdMessage,
                   signature) -> bool:
        """msg carries its executing sidechain's threshold signature
        under the key registered on chain."""
        pubkey = chain.get_pubkey(msg.executing_sidechain_id)
        return pubkey is not None and self.world.scheme.verify(
            pubkey, encode_message(msg), signature)

    def _stale(self, msg: ThresholdMessage, head: int) -> bool:
        """msg's block number is ahead of head or older than the
        freshness window allows."""
        return not (head - self.world.config.freshness_window
                    <= msg.block_number <= head)

    def _trusted(self, tx: CrosschainTransaction) -> bool:
        ref = (tx.coordination_blockchain_id, tx.coordination_contract_address)
        if ref not in self.world.coordination:
            return False
        trusted = self.sidechain.trusted_coordination
        return trusted is None or ref in trusted

    def _coordination_for(self, tx: CrosschainTransaction) -> CoordinationChain:
        return self.world.coordination[
            (tx.coordination_blockchain_id, tx.coordination_contract_address)]

    def _tx_active(self, tx: CrosschainTransaction) -> bool:
        try:
            status = self._coordination_for(tx).status_of(
                tx.crosschain_tx_id, tx.originating_sidechain_id)
        except UnknownEntryError:
            return False
        return status is EffectiveStatus.STARTED

    def _pubkeys_available(self, tx: CrosschainTransaction,
                           views_only: bool = False) -> bool:
        chain = self._coordination_for(tx)
        for node in tx.walk():
            if node is tx:
                continue
            if views_only and node.tx_type is not TxType.SUBORDINATE_VIEW:
                continue
            if chain.get_pubkey(node.execution_sidechain_id) is None:
                return False
        return True

    def _verify_view_results(self, tx: CrosschainTransaction, frame: CallFrame,
                             view_results: dict) -> None:
        """Check signatures, hash binding and freshness of the collected
        subordinate view result messages for a frame."""
        chain = self._coordination_for(tx)
        for pos in frame.view_positions():
            packed = view_results.get(pos)
            _check(packed is not None, VIEW_FAILED)
            vmsg, sig = packed
            _check(vmsg.view_hash == wire.tx_hash(frame.expected[pos])
                   and self._signed_by(chain, vmsg, sig),
                   VIEW_RESULT_BAD_SIGNATURE)
            _check(not self._stale(vmsg, self.world.sidechains[
                vmsg.executing_sidechain_id].block_number), STALE_VIEW_RESULT)
            frame.view_results[pos] = vmsg.result

    def _execute(self, tx: CrosschainTransaction, frame: CallFrame,
                 signer: bytes):
        """execute_local on this validator's ledger."""
        try:
            return self.state.execute_local(tx, frame, signer)
        except ExecutionError as exc:
            raise EngineError(exc.reason, str(exc))

    def _read_view(self, view: CrosschainTransaction, frame: CallFrame,
                   signer: bytes) -> bytes:
        """read_view of a subordinate view on this validator's ledger."""
        try:
            return self.state.read_view(view.to, view.data, frame=frame,
                                        caller=signer,
                                        same_holder=LockHolder.of_tx(view))
        except ExecutionError as exc:
            raise EngineError(exc.reason)

    # -- validator: signing requests ------------------------------------------------

    def _on_sign_request(self, msg: Message) -> None:
        body = msg.body
        try:
            self._vet_signing(body)
        except EngineError as refusal:
            self.step(f"val:refuse_{body['kind']}", refusal.reason)
            self.reply(msg, "sign_reply", {"ok": False, "reason": refusal.reason})
            return
        partial = self.world.scheme.sign_share(self.key_share, body["payload"])
        if self.net.is_fault_active(CORRUPT_SHARE, self.node_id):
            partial = self.world.scheme.sign_share(
                replace(self.key_share, scalar=self.key_share.scalar + 1),
                body["payload"])
        self.reply(msg, "sign_reply",
                   {"ok": True, "index": partial.index, "point": partial.point})

    def _vet_signing(self, body: dict) -> None:
        """Return when this validator agrees to sign, else refuse."""
        kind = body["kind"]
        payload = body["payload"]
        if kind in ("start", "commit", "ignore"):
            tx: CrosschainTransaction = body["tx"]
            _check(self._tx_permitted(_common_signer(tx)), PERMISSION_DENIED)
            _check(self._trusted(tx), UNTRUSTED_COORDINATION)
            derived = self.world.derive_message(MessageKind[kind.upper()], tx)
            _check(encode_message(derived) == payload, RESULT_MISMATCH)
            if kind == "start":
                _check(self.node_id not in self.world.start_sign_refusals,
                       "refused-by-policy")
                _check(tx.crosschain_timeout_blocks <= self.sidechain.max_lock_horizon,
                       TIMEOUT_UNACCEPTABLE)
                _check(self._pubkeys_available(tx), PUBKEY_UNAVAILABLE)
            if kind == "commit":
                readies: Dict[bytes, tuple] = body["readies"]
                chain = self._coordination_for(tx)
                for sub in tx.walk():
                    if sub.tx_type is TxType.SUBORDINATE_TX:
                        packed = readies.get(wire.tx_hash(sub))
                        _check(packed is not None and self._signed_by(chain, *packed),
                               READY_BAD_SIGNATURE)
        elif kind == "ready":
            subtx: CrosschainTransaction = body["tx"]
            _check(wire.tx_hash(subtx) in self.sidechain.mined, NOT_MINED)
            derived = self.world.derive_ready(subtx)
            _check(encode_message(derived) == payload, RESULT_MISMATCH)
        elif kind == "view_result":
            view: CrosschainTransaction = body["tx"]
            signer = self._admit(view, self.sidechain.view_allowed)
            claimed: ThresholdMessage = body["result_message"]
            _check(not self._stale(claimed, self.sidechain.block_number),
                   STALE_VIEW_RESULT)
            frame = CallFrame.for_tx(view)
            self._verify_view_results(view, frame, body["view_results"])
            result = self._read_view(view, frame, signer)
            override = self.world.view_result_overrides.get(self.node_id)
            if override is not None:
                result = override
            _check(result == claimed.result and encode_message(claimed) == payload,
                   RESULT_MISMATCH)
        else:
            raise EngineError(f"unknown-sign-kind-{kind}")

    # -- validator: mining -------------------------------------------------------

    def _on_mine_request(self, msg: Message) -> None:
        body = msg.body
        tx: CrosschainTransaction = body["tx"]
        try:
            self._vet_mining(body)
        except EngineError as refusal:
            self.step("val:refuse_mine", refusal.reason)
            self.reply(msg, "mine_reply", {"ok": False, "reason": refusal.reason})
            return
        # accepted: remember the context and arm the local resolve timer
        self._register_context(tx)
        self.step("val:mine_accepted", wire.tx_hash(tx))
        self.reply(msg, "mine_reply", {"ok": True})

    def _vet_mining(self, body: dict) -> None:
        """Return when this validator agrees to mine, else refuse."""
        tx: CrosschainTransaction = body["tx"]
        if tx.tx_type is TxType.SUBORDINATE_TX:
            # fig-13 style checks happen at mining distribution for
            # subordinate transactions
            signer = self._admit(tx, self.sidechain.tx_allowed)
            chain = self._coordination_for(tx)
            remaining = chain.entry_timeout(
                tx.crosschain_tx_id, tx.originating_sidechain_id) - chain.block_number
            _check(remaining <= self.sidechain.max_lock_horizon, TIMEOUT_UNACCEPTABLE)
        else:
            signer = _common_signer(tx)
        frame = CallFrame.for_tx(tx)
        self._verify_view_results(tx, frame, body["view_results"])
        overlay = self._execute(tx, frame, signer).overlay
        _check(overlay.storage_delta == body["overlay"].storage_delta
               and overlay.balance_deltas == body["overlay"].balance_deltas,
               RESULT_MISMATCH)

    def _register_context(self, tx: CrosschainTransaction) -> None:
        key = (tx.crosschain_tx_id, tx.originating_sidechain_id)
        ctx = self.contexts.get(key)
        if ctx is None:
            ctx = _Context(holder=LockHolder.of_tx(tx))
            self.contexts[key] = ctx
        ctx.locked.add(tx.to)
        if not ctx.timer_armed:
            ctx.timer_armed = True
            self.net.set_timer(self.node_id, ("resolve", key), self._global_deadline(tx)
                               + self.world.config.resolve_timer_lag)

    # -- resolution (check messages and local timers) ------------------------------

    def _on_check(self, msg: Message) -> None:
        key = (msg.body["tx_id"], msg.body["orig_id"])
        if msg.body.get("forward", False):
            self.step("sub:check_forwarded")
            self._check_siblings(msg.body)
        self._resolve_context(key)

    def _check_siblings(self, body: dict) -> None:
        """Send check_coordination to the other validators of this
        sidechain, for them not to forward again."""
        for validator in self.sidechain.validators:
            if validator is not self:
                self.send(validator.node_id, "check_coordination",
                          {**body, "forward": False})

    def _resolve_context(self, key: tuple) -> None:
        ctx = self.contexts.get(key)
        if ctx is None:
            return
        tx_id, orig_id = key
        chain = self.world.coordination.get(ctx.holder.coordination_ref)
        if chain is None:
            return
        try:
            status = chain.status_of(tx_id, orig_id)
        except UnknownEntryError:
            status = EffectiveStatus.IGNORED
        if status is EffectiveStatus.STARTED:
            # fired early (clock skew or an explicit check while still
            # active): re-arm until past the timeout block
            expire = (chain.timeout_tick(tx_id, orig_id)
                      + self.world.config.resolve_timer_lag)
            if expire <= self.net.tick:
                expire = self.net.tick + chain.block_interval
            self.net.set_timer(self.node_id, ("resolve", key), expire)
            return
        decision = (LockDecision.COMMIT if status is EffectiveStatus.COMMITTED
                    else LockDecision.IGNORE)
        for address in sorted(ctx.locked):
            if self.state.locked_by(address) == ctx.holder:
                self.state.finalize(address, decision)
                self.net.record(self.node_id, "finalize",
                                f"{decision.value}:{address.hex()[:8]}", tx=tx_id,
                                contract=(self.sidechain.sidechain_id, address))
        del self.contexts[key]

    # -- threshold signing round (coordinator side) -----------------------------------

    def _threshold_round(self, kind: str, payload: bytes, context: dict):
        """Collect m valid partial signatures (own plus remote) within
        the signing round timeout; yields, returns the combined
        signature or None.

        Combine, then verify (Boldyreva, PKC 2003): once m shares are
        in, the first m are combined and the result verified once. Only
        after a combination fails is each share checked on its own, and
        m shares that passed are combined. Either way the round ends at
        the same reply as a share-by-share check would."""
        scheme = self.world.scheme
        config = self.sidechain.threshold_config
        publics = self.sidechain.share_publics
        # (request id, share); the own share has no request id and is
        # never checked on its own
        own = []
        try:
            self._vet_signing({**context, "kind": kind, "payload": payload})
            own.append((None, scheme.sign_share(self.key_share, payload)))
        except EngineError:
            pass  # refused: the round needs m remote shares
        req_ids = set()
        for validator in self.sidechain.validators:
            if validator is self:
                continue
            req_ids.add(self.request(
                validator.node_id, "sign_request",
                {**context, "kind": kind, "payload": payload}))

        signature = None
        combined_failed = False
        verdicts = {}  # request id -> its share verified on its own

        def _share_ok(rid, share) -> bool:
            if rid is None:
                return True
            if rid not in verdicts:
                verdicts[rid] = scheme.verify_share(
                    publics[share.index], payload, share)
            return verdicts[rid]

        def _signed(replies) -> bool:
            nonlocal signature, combined_failed
            shares = own + [
                (rid, SignatureShare(index=body["index"], point=body["point"]))
                for rid, (_, body) in replies.items() if body.get("ok")]
            if len(shares) < config.m:
                return False
            if not combined_failed:
                candidate = scheme.combine(
                    [share for _, share in shares[:config.m]], config)
                if scheme.verify(self.sidechain.group_public_key, payload,
                                 candidate):
                    signature = candidate
                    return True
                combined_failed = True
            valid = [share for rid, share in shares if _share_ok(rid, share)]
            if len(valid) < config.m:
                return False
            signature = scheme.combine(valid[:config.m], config)
            return True

        if not req_ids:
            _signed({})  # a lone validator: no reply will call ``enough``
        yield Collect(
            keys=req_ids,
            deadline=self.net.tick + self.world.config.signing_round_timeout,
            enough=_signed)
        return signature

    # -- coordination submissions ----------------------------------------------------

    def _submit(self, tx: CrosschainTransaction, op: str,
                message: ThresholdMessage, signature):
        rid = self.request(
            self.world.coordination_node_id(tx), "submit",
            {"op": op, "message": message, "signature": signature})
        replies = yield Collect(
            keys={rid},
            deadline=self.net.tick + 4 * self.world.config.cross_latency
            + self.world.config.signing_round_timeout)
        if rid not in replies:
            return {"ok": False, "error": "submission timed out"}
        return replies[rid][1]

    # -- views: gather subordinate view results ----------------------------------------

    def _gather_views(self, mn: "MultichainNode", tx: CrosschainTransaction,
                      frame: CallFrame, deadline: int):
        """Dispatch the depth-1 subordinate views of tx, collect their
        signed results and verify them into frame. Returns the results
        by call position."""
        positions = frame.view_positions()
        if not positions:
            return {}
        rid_to_pos = {}
        for pos in positions:
            child = frame.expected[pos]
            target = mn.members.get(child.target_sidechain_id)
            _check(target is not None, MISSING_SIDECHAIN)
            rid = self.request(target.node_id, "process_view",
                               {"tx": child, "multichain": mn.name})
            rid_to_pos[rid] = pos
        replies = yield Collect(keys=set(rid_to_pos), deadline=deadline)
        results = {}
        for rid, pos in rid_to_pos.items():
            _check(rid in replies, VIEW_FAILED)
            _, body = replies[rid]
            _check(body.get("ok"), body.get("reason", VIEW_FAILED))
            results[pos] = (body["message"], body["signature"])
        self._verify_view_results(tx, frame, results)
        return results

    # -- views, execution and mining (originating and subordinate flows) -----------

    def _execute_and_mine(self, flow: str, mn: "MultichainNode",
                          tx: CrosschainTransaction, signer: bytes,
                          deadline: int):
        """Gather tx's subordinate views, execute it on the local replica
        and mine it, tracing {flow}:views_dispatched, views_collected,
        executed and mined; returns the call frame."""
        frame = CallFrame.for_tx(tx)
        self.step(f"{flow}:views_dispatched")
        view_results = yield from self._gather_views(mn, tx, frame, deadline)
        self.step(f"{flow}:views_collected")
        outcome = self._execute(tx, frame, signer)
        self.step(f"{flow}:executed")
        yield from self._mine_round(tx, frame, view_results, outcome)
        self.step(f"{flow}:mined")
        return frame

    # -- mining round -------------------------------------------------------------

    def _mine_round(self, tx: CrosschainTransaction, frame: CallFrame,
                    view_results: dict, outcome):
        """Propose the executed transaction to the validator set; on m
        accepts the transaction is final: nonce consumed, contract
        locked with the provisional overlay attached."""
        config = self.sidechain.threshold_config
        accepts = 1  # own validation already done by execute_local
        self._register_context(tx)
        body = {"tx": tx, "view_results": view_results, "overlay": outcome.overlay}
        req_ids = set()
        for validator in self.sidechain.validators:
            if validator is not self:
                req_ids.add(self.request(validator.node_id, "mine_request", body))

        def _accepted(replies) -> int:
            return accepts + sum(1 for _, b in replies.values() if b.get("ok"))

        replies = yield Collect(
            keys=req_ids,
            deadline=self.net.tick + self.world.config.signing_round_timeout,
            enough=lambda rs: _accepted(rs) >= config.m)
        if _accepted(replies) < config.m:
            reasons = [b.get("reason") for _, b in replies.values() if not b.get("ok")]
            raise EngineError(reasons[0] if reasons else MINING_REJECTED)
        try:
            # inclusion in the chain: lock the contract with the overlay
            # attached; a racing transaction may have taken the lock
            # since this one was validated
            self.state.lock(tx.to, LockHolder.of_tx(tx), outcome.overlay)
        except ExecutionError as exc:
            raise EngineError(exc.reason)
        signer = wire.recover_signer(tx)
        self.state.nonces[signer] = tx.nonce + 1
        self.sidechain.mined.add(wire.tx_hash(tx))
        self.net.record(self.node_id, "lock", f"locked:{tx.to.hex()[:8]}",
                        tx=tx.crosschain_tx_id,
                        contract=(self.sidechain.sidechain_id, tx.to))

    # -- originating transaction flow ----------------------------------------------

    def submit_originating(self, mn: "MultichainNode", tx: CrosschainTransaction,
                           handle: TxHandle) -> None:
        self.start_flow(self._originating_flow(mn, tx, handle))

    def _originating_flow(self, mn: "MultichainNode", tx: CrosschainTransaction,
                          handle: TxHandle):
        started = False
        try:
            self.step("orig:received", tx.crosschain_tx_id)
            try:
                signer = wire.recover_signer(tx)
            except wire.WireError:
                raise EngineError(SIGNER_MISMATCH)
            _check(self._tx_permitted(signer), PERMISSION_DENIED)
            self.step("orig:permission_checked")
            _check(self._trusted(tx) and mn.trusts(
                tx.coordination_blockchain_id, tx.coordination_contract_address),
                UNTRUSTED_COORDINATION)
            self.step("orig:trust_checked")
            for node in tx.walk():
                chain_id = node.execution_sidechain_id
                if chain_id not in mn.members or chain_id not in self.world.sidechains:
                    raise EngineError(MISSING_SIDECHAIN, chain_id.short())
            self.step("orig:coverage_checked")
            _common_signer(tx)
            self.step("orig:signer_checked")
            _check(self._pubkeys_available(tx), PUBKEY_UNAVAILABLE)
            self.step("orig:pubkeys_fetched")

            start_msg = self.world.derive_message(MessageKind.START, tx)
            start_sig = yield from self._threshold_round(
                "start", encode_message(start_msg), {"tx": tx})
            _check(start_sig is not None, START_SIGNING_FAILED)
            self.step("orig:start_signed")
            result = yield from self._submit(tx, "start", start_msg, start_sig)
            _check(result.get("ok"), START_REJECTED, result.get("error", ""))
            started = True
            self.step("orig:start_submitted")

            deadline = self._global_deadline(tx)
            frame = yield from self._execute_and_mine("orig", mn, tx, signer, deadline)

            # legs are dispatched in the order the call graph executed
            # them; each leg's whole subtree must report ready before the
            # next leg goes out
            self.step("orig:subtx_dispatched")
            readies: Dict[bytes, tuple] = {}
            chain = self._coordination_for(tx)
            for pos in frame.tx_positions():
                child = frame.expected[pos]
                target = mn.members[child.target_sidechain_id]
                self.send(target.node_id, "process_subtx",
                          {"tx": child, "multichain": mn.name})
                leg_hashes = [wire.tx_hash(node) for node in child.walk()
                              if node.tx_type is TxType.SUBORDINATE_TX]
                collected = yield Collect(
                    keys=leg_hashes, deadline=deadline,
                    enough=lambda got: any(not b.get("ok") for b in got.values()))
                # the first error in arrival order decides the reason
                errors = [b for b in collected.values() if not b.get("ok")]
                if errors:
                    raise EngineError(SUBORDINATE_FAILED, errors[0].get("reason", ""))
                for h in leg_hashes:
                    body = collected.get(h)
                    _check(body is not None, READY_TIMEOUT)
                    readies[h] = (body["message"], body["signature"])
                    _check(self._signed_by(chain, *readies[h]), READY_BAD_SIGNATURE)
            self.step("orig:ready_collected")

            commit_msg = self.world.derive_message(MessageKind.COMMIT, tx)
            commit_sig = yield from self._threshold_round(
                "commit", encode_message(commit_msg),
                {"tx": tx, "readies": readies})
            _check(commit_sig is not None, COMMIT_SIGNING_FAILED)
            self.step("orig:commit_signed")
            result = yield from self._submit(tx, "commit", commit_msg, commit_sig)
            if not result.get("ok"):
                # The commit decision is the record on the coordination
                # contract, not its acknowledgement. While the record
                # says started the commit may still be in flight: an
                # ignore races it (this flow's only ignore), and past the
                # global timeout the record can no longer change.
                started = False
                key = (tx.crosschain_tx_id, tx.originating_sidechain_id)
                if chain.status_of(*key) is EffectiveStatus.STARTED:
                    yield from self._ignore_flow(mn, tx)
                while chain.status_of(*key) is EffectiveStatus.STARTED:
                    yield Sleep(max(deadline - self.net.tick, 1))
                _check(chain.status_of(*key) is EffectiveStatus.COMMITTED,
                       COMMIT_REJECTED, result.get("error", ""))
            self.step("orig:commit_submitted")

            self._broadcast_check(mn, tx)
            self.step("orig:check_broadcast")
            handle.outcome = ("committed",)
        except EngineError as failure:
            self.net.record(self.node_id, "failure", failure.reason,
                            failure.detail)
            handle.outcome = ("failed", failure.reason)
            if started:
                yield from self._ignore_flow(mn, tx)

    def _ignore_flow(self, mn: "MultichainNode", tx: CrosschainTransaction):
        """Best-effort early termination; if any step fails the global
        timeout resolves the transaction instead."""
        ignore_msg = self.world.derive_message(MessageKind.IGNORE, tx)
        sig = yield from self._threshold_round(
            "ignore", encode_message(ignore_msg), {"tx": tx})
        if sig is None:
            self.net.record(self.node_id, "failure", "ignore-signing-failed")
            return
        self.step("orig:ignore_signed")
        result = yield from self._submit(tx, "ignore", ignore_msg, sig)
        if result.get("ok"):
            self.step("orig:ignore_submitted")
            self._broadcast_check(mn, tx)

    def _global_deadline(self, tx: CrosschainTransaction) -> int:
        """The tick at which tx's entry on its coordination chain times
        out."""
        return self._coordination_for(tx).timeout_tick(
            tx.crosschain_tx_id, tx.originating_sidechain_id)

    def _broadcast_check(self, mn: "MultichainNode", tx: CrosschainTransaction) -> None:
        body = {"tx_id": tx.crosschain_tx_id,
                "orig_id": tx.originating_sidechain_id}
        self._check_siblings(body)
        involved = {node.execution_sidechain_id for node in tx.walk()
                    if node.tx_type is not TxType.SUBORDINATE_VIEW}
        for chain_id in sorted(involved, key=lambda s: s.value):
            if chain_id == self.sidechain.sidechain_id:
                continue
            member = mn.members.get(chain_id)
            if member is not None:
                self.send(member.node_id, "check_coordination",
                          {**body, "forward": True})
        self._resolve_context((tx.crosschain_tx_id, tx.originating_sidechain_id))

    # -- subordinate transaction flow ----------------------------------------------

    def _subordinate_flow(self, msg: Message):
        tx: CrosschainTransaction = msg.body["tx"]
        mn = self.world.multichain_nodes[msg.body["multichain"]]
        orig_coordinator = mn.members[tx.originating_sidechain_id]
        try:
            self.step("sub:received", tx.crosschain_tx_id)
            signer = self._admit(tx, self.sidechain.tx_allowed, "sub")
            frame = yield from self._execute_and_mine(
                "sub", mn, tx, signer, self._global_deadline(tx))

            ready_msg = self.world.derive_ready(tx)
            ready_sig = yield from self._threshold_round(
                "ready", encode_message(ready_msg), {"tx": tx})
            _check(ready_sig is not None, READY_SIGNING_FAILED)
            self.step("sub:ready_signed")

            for pos in frame.tx_positions():
                child = frame.expected[pos]
                target = mn.members.get(child.target_sidechain_id)
                self.send(target.node_id, "process_subtx",
                          {"tx": child, "multichain": mn.name})
            self.step("sub:children_dispatched")

            self.send(orig_coordinator.node_id, "subtx_ready",
                      {"ok": True, "message": ready_msg, "signature": ready_sig})
            self.step("sub:ready_sent")
        except EngineError as failure:
            self.net.record(self.node_id, "failure", failure.reason)
            self.send(orig_coordinator.node_id, "subtx_error",
                      {"ok": False, "tx_hash": wire.tx_hash(tx),
                       "reason": failure.reason})

    # -- subordinate view flow ----------------------------------------------------

    def _view_flow(self, msg: Message):
        view: CrosschainTransaction = msg.body["tx"]
        mn = self.world.multichain_nodes[msg.body["multichain"]]
        try:
            self.step("view:received", view.crosschain_tx_id)
            signer = self._admit(view, self.sidechain.view_allowed, "view")
            frame = CallFrame.for_tx(view)
            view_results = yield from self._gather_views(
                mn, view, frame, self._global_deadline(view))
            self.step("view:children_collected")
            result = self._read_view(view, frame, signer)
            self.step("view:executed")

            result_msg = ThresholdMessage(
                kind=MessageKind.SUBORDINATE_VIEW_RESULT,
                originating_sidechain_id=view.originating_sidechain_id,
                crosschain_tx_id=view.crosschain_tx_id,
                coordination_blockchain_id=view.coordination_blockchain_id,
                coordination_contract_address=view.coordination_contract_address,
                executing_sidechain_id=self.sidechain.sidechain_id,
                block_number=self.sidechain.block_number,
                view_hash=wire.tx_hash(view),
                result=result)
            sig = yield from self._threshold_round(
                "view_result", encode_message(result_msg),
                {"tx": view, "view_results": view_results,
                 "result_message": result_msg})
            _check(sig is not None, VIEW_SIGNING_FAILED)
            self.step("view:result_signed")
            self.reply(msg, "view_reply",
                       {"ok": True, "message": result_msg, "signature": sig})
        except EngineError as refusal:
            self.net.record(self.node_id, "failure", refusal.reason)
            self.reply(msg, "view_reply", {"ok": False, "reason": refusal.reason})


@lru_cache(maxsize=256)
def _dealer_keys(scheme, config: ThresholdConfig, seed: int):
    """A dealer key set and (index, public share) pairs. A pure function
    of its arguments, and all of it immutable, so a scenario run many
    times over, as in a fault sweep, derives each sidechain's keys
    once."""
    shares, pk = scheme.keygen_dealer(config, seed)
    return tuple(shares), pk, tuple((s.index, scheme.public_share(s)) for s in shares)


class Sidechain:
    """A sidechain: threshold key material, validator set, permissions
    and the shared (instantly final) ledger."""

    def __init__(self, world: "World", sidechain_id: SidechainId,
                 config: ThresholdConfig, keygen_seed: int,
                 tx_allowed: Optional[Set[bytes]] = None,
                 view_allowed: Optional[Set[bytes]] = None,
                 trusted_coordination: Optional[Set[tuple]] = None,
                 max_lock_horizon: Optional[int] = None,
                 block_interval: int = DEFAULT_BLOCK_INTERVAL):
        self.world = world
        self.sidechain_id = sidechain_id
        self.threshold_config = config
        self.state = SidechainState(sidechain_id, HANDLERS)
        self.block_interval = block_interval
        self.block_number = 0
        self.mined: Set[bytes] = set()
        self.tx_allowed = tx_allowed
        self.view_allowed = view_allowed
        self.trusted_coordination = trusted_coordination
        self.max_lock_horizon = (world.config.max_lock_horizon
                                 if max_lock_horizon is None else max_lock_horizon)
        self.validators = [ValidatorNode(world, self, i)
                           for i in range(1, config.n + 1)]
        self.install_keys(keygen_seed)

    def advance_block(self, n: int = 1) -> None:
        self.block_number += n

    def install_keys(self, seed: int) -> None:
        shares, pk, publics = _dealer_keys(
            self.world.scheme, self.threshold_config, seed)
        self.group_public_key = pk
        self.share_publics = dict(publics)
        for validator, share in zip(self.validators, shares):
            validator.key_share = share

    def validator(self, index: int) -> ValidatorNode:
        """The validator at 1-based index; ValueError outside 1..n."""
        if not 1 <= index <= len(self.validators):
            raise ValueError(
                f"validator index {index} outside 1..{len(self.validators)}")
        return self.validators[index - 1]


class MultichainNode:
    """One organization's mutually trusted nodes, at most one per
    sidechain, plus the account key it submits with."""

    def __init__(self, name: str, members: Dict[SidechainId, ValidatorNode],
                 trusted: Optional[Set[tuple]], account: AccountKey):
        self.name = name
        self.members = members
        self.trusted = trusted
        self.account = account

    def trusts(self, chain_id: SidechainId, address: bytes) -> bool:
        return self.trusted is None or (chain_id, address) in self.trusted


class CallSpec:
    """Entry point for building a crosschain transaction or view."""

    __slots__ = ("sidechain_id", "to", "data", "value")

    def __init__(self, sidechain_id: SidechainId, to: bytes, data: bytes,
                 value: int = 0):
        self.sidechain_id = sidechain_id
        self.to = to
        self.data = data
        self.value = value


class _TreeBuilder:
    """Builds one transaction tree by dry-running its entry call on the
    multichain node's member replicas: every crosschain call the run
    makes becomes a child node, in call order, with concrete
    parameters. Transaction nodes take per-chain nonces in the order
    their dry runs finish."""

    def __init__(self, world: "World", mn: MultichainNode, sender: bytes,
                 coordination_ref: Tuple[SidechainId, bytes],
                 tx_id: CrosschainTxId, origin: SidechainId,
                 timeout_blocks: Optional[int] = None):
        self.world = world
        self.mn = mn
        self.sender = sender
        self.coordination_ref = coordination_ref
        self.tx_id = tx_id
        self.origin = origin
        self.timeout_blocks = timeout_blocks
        self.nonce_cursor: Dict[SidechainId, int] = {}

    def _nonce(self, chain_id: SidechainId, state: SidechainState) -> int:
        offset = self.nonce_cursor.get(chain_id, 0)
        self.nonce_cursor[chain_id] = offset + 1
        return state.expected_nonce(self.sender) + offset

    def build(self, tx_type: TxType, chain_id: SidechainId, to: bytes,
              data: bytes, value: int = 0):
        """(node, result bytes) of one call."""
        if chain_id not in self.mn.members or chain_id not in self.world.sidechains:
            raise BuildError(MISSING_SIDECHAIN, chain_id.short())
        state = self.world.sidechains[chain_id].state
        children: List[CrosschainTransaction] = []

        def build_child(is_view: bool, c_chain: SidechainId, c_to: bytes,
                        c_data: bytes) -> bytes:
            child_type = TxType.SUBORDINATE_VIEW if is_view else TxType.SUBORDINATE_TX
            try:
                node, result = self.build(child_type, c_chain, c_to, c_data)
            except BuildError as exc:
                # surface the child's reason without re-wrapping
                raise ExecutionError(exc.reason, str(exc)) from exc
            children.append(node)
            return result

        is_view = tx_type is TxType.SUBORDINATE_VIEW
        try:
            outcome = state.dry_run(to, data, self.sender, value, build_child,
                                    view=is_view)
        except ExecutionError as exc:
            raise BuildError(exc.reason, str(exc)) from exc
        is_root = tx_type is TxType.ORIGINATING
        coord_id, coord_addr = self.coordination_ref
        node = CrosschainTransaction(
            tx_type=tx_type,
            coordination_blockchain_id=coord_id,
            coordination_contract_address=coord_addr,
            crosschain_timeout_blocks=self.timeout_blocks if is_root else None,
            crosschain_tx_id=self.tx_id,
            originating_sidechain_id=self.origin,
            target_sidechain_id=None if is_root else chain_id,
            nonce=0 if is_view else self._nonce(chain_id, state),
            to=to, data=data, value=value,
            subordinates=tuple(children))
        return node, outcome.result


def _entry(rec: TraceRecord) -> dict:
    """An audit_log dict; a finalize's decision is its reason's prefix."""
    finalize = rec.kind == "finalize"
    return {"kind": rec.kind if finalize else "mined", "tick": rec.tick, "tx": rec.tx,
            "sidechain": rec.contract[0], "contract": rec.contract[1],
            "decision": rec.reason.partition(":")[0] if finalize else None}


class World:
    """Everything one simulation run owns."""

    def __init__(self, seed: int = 0, config: Optional[WorldConfig] = None):
        self.config = config or WorldConfig()
        self.seed = seed
        self.net = SimNet(seed=seed, jitter=self.config.jitter)
        self.scheme = get_scheme(self.config.scheme)
        self.sidechains: Dict[SidechainId, Sidechain] = {}
        self.coordination: Dict[tuple, CoordinationChain] = {}
        self._coordination_nodes: Dict[tuple, str] = {}
        self._sidechain_of: Dict[str, Sidechain] = {}  # by validator node id
        self.multichain_nodes: Dict[str, MultichainNode] = {}
        self._req_counter = 0
        self._id_counter = 0
        self.handles: List[TxHandle] = []
        self.view_result_overrides: Dict[str, bytes] = {}
        # scenario-injected policy: node ids that refuse to sign start
        # messages (e.g. modelling validators that consider a
        # coordinator to be spamming)
        self.start_sign_refusals: Set[str] = set()
        self._member_rotation: Dict[SidechainId, int] = {}

    # -- ids and replies -----------------------------------------------------

    def next_req_id(self) -> int:
        self._req_counter += 1
        return self._req_counter

    def new_tx_id(self) -> CrosschainTxId:
        from .hashing import keccak256
        self._id_counter += 1
        raw = keccak256(b"txid" + self.seed.to_bytes(8, "big")
                        + self._id_counter.to_bytes(8, "big"))
        return CrosschainTxId(int.from_bytes(raw, "big"))

    def send(self, msg: Message) -> None:
        """Send msg after intra_latency between validators of one
        sidechain, else after cross_latency."""
        chain = self._sidechain_of.get(msg.sender)
        same = chain is not None and chain is self._sidechain_of.get(msg.recipient)
        self.net.send(msg, self.config.intra_latency if same
                      else self.config.cross_latency)

    def reply(self, sender: str, msg: Message, mtype: str, body: dict) -> None:
        self.send(Message(sender, msg.sender, mtype, body, reply_to=msg.req_id))

    # -- topology ---------------------------------------------------------------

    def add_coordination_chain(self, chain_id: SidechainId,
                               contract_address: Optional[bytes] = None,
                               max_timeout_blocks: int = 1000,
                               block_interval: int = DEFAULT_BLOCK_INTERVAL,
                               grace_window: int = 16) -> CoordinationChain:
        from .hashing import keccak256
        if contract_address is None:
            contract_address = keccak256(b"coordination" + chain_id.to_bytes())[12:]
        chain = CoordinationChain(
            chain_id=chain_id, contract_address=contract_address,
            scheme=self.scheme, max_timeout_blocks=max_timeout_blocks,
            grace_window=grace_window, block_interval=block_interval)
        ref = (chain_id, contract_address)
        self.coordination[ref] = chain
        node_id = f"coord:{chain_id.short()}"
        self._coordination_nodes[ref] = node_id
        self.net.register(node_id, _CoordinationNode(self, chain, node_id))
        self.net.bind_clock(node_id, chain)
        return chain

    def coordination_node_id(self, tx: CrosschainTransaction) -> str:
        return self._coordination_nodes[
            (tx.coordination_blockchain_id, tx.coordination_contract_address)]

    def add_sidechain(self, sidechain_id: SidechainId, validators: int,
                      fault_tolerance: int = 0,
                      threshold: Optional[int] = None,
                      keygen_seed: Optional[int] = None,
                      tx_allowed: Optional[Set[bytes]] = None,
                      view_allowed: Optional[Set[bytes]] = None,
                      trusted_coordination: Optional[Set[tuple]] = None,
                      max_lock_horizon: Optional[int] = None,
                      block_interval: int = DEFAULT_BLOCK_INTERVAL) -> Sidechain:
        if threshold is None:
            config = ThresholdConfig.from_fault_tolerance(validators, fault_tolerance)
        else:
            config = ThresholdConfig(n=validators, f=fault_tolerance, m=threshold)
        if keygen_seed is None:
            keygen_seed = self.seed ^ sidechain_id.value & ((1 << 62) - 1)
        sidechain = Sidechain(self, sidechain_id, config, keygen_seed,
                              tx_allowed=tx_allowed, view_allowed=view_allowed,
                              trusted_coordination=trusted_coordination,
                              max_lock_horizon=max_lock_horizon,
                              block_interval=block_interval)
        self.sidechains[sidechain_id] = sidechain
        for validator in sidechain.validators:
            self.net.register(validator.node_id, validator)
            self._sidechain_of[validator.node_id] = sidechain
        self.net.bind_clock(f"chain:{sidechain_id.short()}", sidechain)
        for chain in self.coordination.values():
            chain.register_pubkey(sidechain_id, sidechain.group_public_key,
                                  bootstrap=True)
        return sidechain

    def add_multichain_node(self, name: str, member_chains: Sequence[SidechainId],
                            account: Optional[AccountKey] = None,
                            members: Optional[Dict[SidechainId, int]] = None,
                            trusted: Optional[Set[tuple]] = None) -> MultichainNode:
        """Members default to a round-robin assignment so distinct
        multichain nodes get distinct validators where possible."""
        assignment: Dict[SidechainId, ValidatorNode] = {}
        for chain_id in member_chains:
            sidechain = self.sidechains[chain_id]
            if members and chain_id in members:
                index = members[chain_id]
            else:
                rotation = self._member_rotation.get(chain_id, 0)
                index = (rotation % sidechain.threshold_config.n) + 1
                self._member_rotation[chain_id] = rotation + 1
            assignment[chain_id] = sidechain.validator(index)
        mn = MultichainNode(name=name, members=assignment, trusted=trusted,
                            account=account or AccountKey.from_label(name))
        self.multichain_nodes[name] = mn
        return mn

    def rekey_sidechain(self, sidechain_id: SidechainId, seed: int) -> None:
        """Explicit key rotation (scenario triggered): generate a fresh
        key set and publish it authorized under the old key; the old key
        stays verifiable for the grace window."""
        sidechain = self.sidechains[sidechain_id]
        old_shares = [v.key_share for v in sidechain.validators]
        old_config = sidechain.threshold_config
        sidechain.install_keys(seed)
        from .coordination import key_update_payload
        for chain in self.coordination.values():
            payload = key_update_payload(
                sidechain_id, self.scheme.public_key_bytes(sidechain.group_public_key))
            partials = [self.scheme.sign_share(s, payload)
                        for s in old_shares[:old_config.m]]
            authorization = self.scheme.combine(partials, old_config)
            chain.register_pubkey(sidechain_id, sidechain.group_public_key,
                                  authorization=authorization)

    # -- message derivation ---------------------------------------------------------

    def derive_message(self, kind: MessageKind,
                       tx: CrosschainTransaction) -> ThresholdMessage:
        return ThresholdMessage(
            kind=kind,
            originating_sidechain_id=tx.originating_sidechain_id,
            crosschain_tx_id=tx.crosschain_tx_id,
            coordination_blockchain_id=tx.coordination_blockchain_id,
            coordination_contract_address=tx.coordination_contract_address,
            timeout_blocks=(tx.crosschain_timeout_blocks
                            if kind is MessageKind.START else None))

    def derive_ready(self, subtx: CrosschainTransaction) -> ThresholdMessage:
        return ThresholdMessage(
            kind=MessageKind.SUBORDINATE_TX_READY,
            originating_sidechain_id=subtx.originating_sidechain_id,
            crosschain_tx_id=subtx.crosschain_tx_id,
            coordination_blockchain_id=subtx.coordination_blockchain_id,
            coordination_contract_address=subtx.coordination_contract_address,
            executing_sidechain_id=subtx.target_sidechain_id,
            transaction_hash=wire.tx_hash(subtx))

    # -- public operations -------------------------------------------------------------

    def submit_crosschain_tx(self, mn_name: str, tx: CrosschainTransaction,
                             alias: str = "", delay: int = 0) -> TxHandle:
        """Hand a signed originating transaction to the multichain
        node's coordinator on the originating sidechain."""
        mn = self.multichain_nodes[mn_name]
        handle = TxHandle(
            crosschain_tx_id=tx.crosschain_tx_id,
            originating_sidechain_id=tx.originating_sidechain_id,
            coordination_ref=(tx.coordination_blockchain_id,
                              tx.coordination_contract_address),
            alias=alias)
        self.handles.append(handle)
        coordinator = mn.members.get(tx.originating_sidechain_id)
        if coordinator is None:
            handle.outcome = ("failed", MISSING_SIDECHAIN)
            return handle
        self.net.call_soon(
            lambda: coordinator.submit_originating(mn, tx, handle), delay=delay)
        return handle

    def submit_crosschain_view(self, mn_name: str, view: CrosschainTransaction,
                               policy: Optional[LockedViewPolicy] = None) -> bytes:
        """Synchronous recursive evaluation on the multichain node's
        member replicas: no signing, no locking."""
        mn = self.multichain_nodes[mn_name]
        policy = policy or self.config.locked_view_policy
        for node in view.walk():
            if node.tx_type is not TxType.SUBORDINATE_VIEW:
                raise EngineError(VIEW_FAILED, "tree contains non-view nodes")
            if node.target_sidechain_id not in mn.members:
                raise EngineError(MISSING_SIDECHAIN,
                                  node.target_sidechain_id.short())

        def evaluate(node: CrosschainTransaction) -> bytes:
            frame = CallFrame.for_tx(node)
            for pos in frame.view_positions():
                frame.view_results[pos] = evaluate(frame.expected[pos])
            state = self.sidechains[node.target_sidechain_id].state
            return state.read_view(node.to, node.data, policy=policy,
                                   frame=frame, caller=mn.account.address)

        return evaluate(view)

    # -- transaction building (dry-run dynamic analysis) ---------------------------------

    def build_crosschain_tx(self, mn_name: str, entry: CallSpec,
                            timeout_blocks: int,
                            coordination_ref: Tuple[SidechainId, bytes],
                            account: Optional[AccountKey] = None,
                            tx_id: Optional[CrosschainTxId] = None
                            ) -> CrosschainTransaction:
        """Dry-run the call graph against current overlay-free state,
        recording every emitted subordinate call in execution order with
        concrete parameters, and allocate in-order nonces per chain."""
        mn = self.multichain_nodes[mn_name]
        builder = _TreeBuilder(self, mn, (account or mn.account).address,
                               coordination_ref, tx_id or self.new_tx_id(),
                               entry.sidechain_id, timeout_blocks)
        tx, _ = builder.build(TxType.ORIGINATING, entry.sidechain_id,
                              entry.to, entry.data, entry.value)
        return tx

    def build_crosschain_view(self, mn_name: str, entry: CallSpec,
                              coordination_ref: Tuple[SidechainId, bytes],
                              tx_id: Optional[CrosschainTxId] = None
                              ) -> CrosschainTransaction:
        """All-view tree rooted at the entry call."""
        mn = self.multichain_nodes[mn_name]
        builder = _TreeBuilder(self, mn, mn.account.address, coordination_ref,
                               tx_id or self.new_tx_id(), entry.sidechain_id)
        view, _ = builder.build(TxType.SUBORDINATE_VIEW, entry.sidechain_id,
                                entry.to, entry.data)
        return view

    # -- queries over the lock and finalize records ------------------------------------

    @property
    def audit_log(self) -> List[dict]:
        """A mined dict per lock record, a finalize dict per finalize."""
        return [_entry(rec) for rec in self.net.trace if rec.tx is not None]

    def _records(self, tx_id: CrosschainTxId, kind: str) -> List[TraceRecord]:
        return [rec for rec in self.net.by_tx.get(tx_id, ()) if rec.kind == kind]

    def finalize_decisions(self, tx_id: CrosschainTxId) -> List[dict]:
        return [_entry(rec) for rec in self._records(tx_id, "finalize")]

    def participating_contracts(self, tx_id: CrosschainTxId) -> Set[tuple]:
        return {rec.contract for rec in self._records(tx_id, "lock")}

    def atomicity_ok(self, tx_id: CrosschainTxId) -> bool:
        """All participating contracts finalized the same way, or none was
        ever locked. A contract still locked (not yet resolved: run to
        quiescence before asserting) counts as an outcome of its own."""
        decisions = {rec.contract: rec.reason.startswith("commit:")
                     for rec in self._records(tx_id, "finalize")}
        return len({decisions.get(p) for p in self.participating_contracts(tx_id)}) <= 1

    def committed_contracts(self, tx_id: CrosschainTxId) -> Set[tuple]:
        return {rec.contract for rec in self._records(tx_id, "finalize")
                if rec.reason.startswith("commit:")}

    def run(self, max_ticks: int = 100_000):
        return self.net.run_until_quiescent(max_ticks=max_ticks)

    def dump_state_to_trace(self) -> None:
        """Record every contract's storage and every coordination entry
        in the trace (hex key/value pairs behind stable digests)."""
        for chain_id in sorted(self.sidechains, key=lambda s: s.value):
            state = self.sidechains[chain_id].state
            for address in sorted(state.contracts):
                self.net.record(f"chain:{chain_id.short()}", "dump",
                                f"storage:{address.hex()[:8]}",
                                state.storage_dump(address))
            self.net.record(f"chain:{chain_id.short()}", "dump", "balances",
                            {k.hex(): v for k, v in sorted(state.balances.items())})
        for (chain_id, address), chain in sorted(
                self.coordination.items(), key=lambda kv: kv[0][0].value):
            entries = {key.hex(): (entry.state.value, entry.timeout_block)
                       for key, entry in sorted(chain.entries.items())}
            self.net.record(f"coord:{chain_id.short()}", "dump",
                            f"entries:{len(entries)}", entries)

