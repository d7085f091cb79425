"""Deterministic discrete-event transport and fault injection.

A single-threaded scheduler executes events in (tick, sequence) order:
message deliveries, timer expiries and scenario actions. Coordination
and sidechain block clocks are bound to the tick stream (block_number =
tick // the chain's block_interval) and advance exactly at block
boundaries as simulated time moves. The full run is captured as a
line-oriented trace whose byte content is a pure function of (scenario,
seed). It is the one event log: lock and finalize records also carry
their transaction, unrendered.

Faults arm on a named protocol step or at a tick, and act on node
crashes, message drops/delays, partitions, share corruption and
validator removal. A removed validator crashes: removal behaves like a
failure, and rekeying happens only where a scenario triggers it.
Crashed nodes receive no deliveries and fire no timers after their
crash instant.
"""

import hashlib
import heapq
import random
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class NodeCrashed(Exception):
    """Raised inside a handler when a crash fault fires at a step."""


class FaultError(ValueError):
    pass


CRASH_NODE = "crash_node"
DROP_MESSAGE = "drop_message"
PARTITION = "partition"
DELAY_MESSAGE = "delay_message"
CORRUPT_SHARE = "corrupt_share"
REMOVE_VALIDATOR = "remove_validator"

FAULT_KINDS = (CRASH_NODE, DROP_MESSAGE, PARTITION, DELAY_MESSAGE,
               CORRUPT_SHARE, REMOVE_VALIDATOR)


@dataclass
class FaultSpec:
    """One injected fault: what happens, where, and when it arms."""

    kind: str
    node: Optional[str] = None            # target node id
    at_step: Optional[str] = None         # arm when this node emits this step
    at_tick: Optional[int] = None         # or arm at a tick (default 0)
    mtype: Optional[str] = None           # message-type filter (drop/delay)
    link: Optional[Tuple[str, str]] = None        # (sender, recipient) filter
    groups: Optional[Tuple[frozenset, frozenset]] = None  # partition sides
    duration: Optional[int] = None        # ticks the fault stays active
    extra_delay: int = 0                  # for delay_message
    count: Optional[int] = None           # max number of applications

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}")
        if self.kind == PARTITION and not self.groups:
            raise FaultError("partition fault needs two node groups")


class _ArmedFault:
    __slots__ = ("spec", "armed_at", "remaining")

    def __init__(self, spec: FaultSpec, armed_at: int, remaining: Optional[int]):
        self.spec = spec
        self.armed_at = armed_at
        self.remaining = remaining

    def active(self, tick: int) -> bool:
        if self.spec.duration is not None and tick >= self.armed_at + self.spec.duration:
            return False
        if self.remaining is not None and self.remaining <= 0:
            return False
        return True

    def use(self) -> None:
        if self.remaining is not None:
            self.remaining -= 1

    def matches(self, msg: "Message") -> bool:
        """msg passes this drop or delay fault's mtype, link and node
        filters."""
        spec = self.spec
        return ((spec.mtype is None or spec.mtype == msg.mtype)
                and (spec.link is None or spec.link == (msg.sender, msg.recipient))
                and (spec.node is None or spec.node in (msg.sender, msg.recipient)))


class Message:
    """One network message; its body is traced, never the message itself."""

    __slots__ = ("sender", "recipient", "mtype", "body", "req_id", "reply_to")

    def __init__(self, sender: str, recipient: str, mtype: str, body: dict,
                 req_id: Optional[int] = None, reply_to: Optional[int] = None):
        self.sender = sender
        self.recipient = recipient
        self.mtype = mtype
        self.body = body
        self.req_id = req_id
        self.reply_to = reply_to


def _canon(obj) -> str:
    """Stable textual form for payload digests.

    Dispatches on the exact type through ``_RENDERERS``, which
    ``_renderer`` fills on the first value of each type. A frozen
    dataclass whose fields hold only immutable values is rendered once:
    its text is kept on the instance itself (see ``_dataclass_renderer``)."""
    render = _RENDERERS.get(type(obj))
    if render is None:
        render = _RENDERERS[type(obj)] = _renderer(type(obj))
    return render(obj)


def _canon_none(obj) -> str:
    return "~"


def _canon_bool(obj) -> str:
    return "T" if obj else "F"


def _canon_bytes(obj) -> str:
    return "x" + bytes(obj).hex()


def _canon_str(obj) -> str:
    return "s" + obj


def _canon_enum(obj) -> str:
    return f"e{obj.__class__.__name__}.{obj.name}"


def _canon_dict(obj) -> str:
    # a stable sort on the key texts, as the keys themselves may not
    # compare with each other
    items = [(_canon(k), v) for k, v in obj.items()]
    items.sort(key=itemgetter(0))
    return "{" + ",".join([f"{k}:{_canon(v)}" for k, v in items]) + "}"


def _canon_seq(obj) -> str:
    return "[" + ",".join(map(_canon, obj)) + "]"


def _canon_scalar(obj) -> str:
    try:
        return "i" + str(int(obj))  # covers int
    except (TypeError, ValueError):
        return "r" + repr(obj)


_RENDERERS: Dict[type, Callable[[object], str]] = {}


def _renderer(cls: type) -> Callable[[object], str]:
    """The renderer for instances of cls; the order of the checks is
    the precedence of the textual forms."""
    if cls is type(None):
        return _canon_none
    if issubclass(cls, bool):
        return _canon_bool
    if issubclass(cls, (bytes, bytearray)):
        return _canon_bytes
    if issubclass(cls, str):
        return _canon_str
    if issubclass(cls, Enum):
        return _canon_enum
    if is_dataclass(cls) and not issubclass(cls, type):
        return _dataclass_renderer(cls)
    if issubclass(cls, dict):
        return _canon_dict
    if issubclass(cls, (list, tuple)):
        return _canon_seq
    return _canon_scalar


# Instance attribute holding a frozen dataclass's canonical text.
_CANON_TEXT = "_simnet_canon_text"
_IMMUTABLE = frozenset((type(None), bool, int, str, bytes))


def _dataclass_renderer(cls: type) -> Callable[[object], str]:
    """Field names are read once per class. A frozen instance keeps its
    text in its ``__dict__``, as ``functools.cached_property`` does:
    per instance, never per value, since equal values such as F(True)
    and F(1) have different texts. The text is kept only when every
    field is settled (see ``_settled``), so a frozen instance holding a
    list or a bytearray is rendered again on each use."""
    names = tuple(f.name for f in fields(cls))
    head = cls.__name__ + "("
    frozen = cls.__dataclass_params__.frozen

    def render(obj) -> str:
        # None for a mutable or a __slots__ dataclass: no memo
        state = getattr(obj, "__dict__", None) if frozen else None
        text = None if state is None else state.get(_CANON_TEXT)
        if text is None:
            values = [getattr(obj, name) for name in names]
            text = head + ",".join(
                f"{name}={_canon(value)}" for name, value in zip(names, values)) + ")"
            if state is not None and all(map(_settled, values)):
                state[_CANON_TEXT] = text
        return text

    return render


def _settled(value) -> bool:
    """True when value's canonical text can never change."""
    if type(value) in _IMMUTABLE or isinstance(value, Enum):
        return True
    if type(value) is tuple:
        return all(map(_settled, value))
    return _CANON_TEXT in getattr(value, "__dict__", ())


def payload_digest(obj) -> str:
    """Eight hex digits of sha256 over ``_canon(obj)``; "-" for None.

    Trace digests are diagnostic, not protocol material: sha256 is
    stable across runs and much faster than the pure-python keccak. The
    canonical text of each frozen message or transaction is computed
    once, however many records carry it."""
    if obj is None:
        return "-"
    return hashlib.sha256(_canon(obj).encode()).hexdigest()[:8]


def tag_str(tag) -> str:
    """Compact, space-free rendering of timer tags and identifiers."""
    if isinstance(tag, tuple):
        return ":".join(tag_str(part) for part in tag)
    short = getattr(tag, "short", None)
    if callable(short):
        return short()
    return str(tag).replace(" ", "_")


class TraceRecord(NamedTuple):
    tick: int
    node: str
    kind: str
    reason: str
    digest: str
    tx: object = None                   # not rendered: a CrosschainTxId
    contract: Optional[tuple] = None    # not rendered: (SidechainId, address)

    def line(self) -> str:
        reason = self.reason.replace(" ", "_")
        return (f"tick={self.tick} node={self.node} kind={self.kind} "
                f"reason={reason} digest={self.digest}")


TRACE_FIELDS = TraceRecord._fields[:5]  # of a rendered line, in order


class SimNet:
    """The event loop, clock bindings, trace sink and fault registry."""

    def __init__(self, seed: int = 0, default_latency: int = 3,
                 jitter: int = 0):
        self.seed = seed
        self.rng = random.Random(seed)
        self.default_latency = default_latency
        self.jitter = jitter
        self.tick = 0
        self._seq = 0
        self._queue: List[tuple] = []
        self._nodes: Dict[str, object] = {}
        self.crashed: set = set()
        self.trace: List[TraceRecord] = []
        self.by_tx: Dict[object, List[TraceRecord]] = {}  # records with a tx
        self._faults: List[_ArmedFault] = []
        self._pending_faults: List[FaultSpec] = []
        self._clocks: List[tuple] = []  # (name, chain_obj, interval)
        self.tick_limit_hit = False

    # -- registration ------------------------------------------------------

    def register(self, node_id: str, node) -> None:
        if node_id in self._nodes:
            raise FaultError(f"duplicate node id {node_id}")
        self._nodes[node_id] = node

    def bind_clock(self, name: str, chain) -> None:
        """Drive chain.advance_block so that block_number ==
        tick // chain.block_interval."""
        if chain.block_interval < 1:
            raise FaultError("block interval must be >= 1")
        self._clocks.append((name, chain, chain.block_interval))

    # -- trace --------------------------------------------------------------

    def record(self, node: str, kind: str, reason: str, payload=None,
               tx=None, contract: Optional[tuple] = None) -> None:
        rec = TraceRecord(self.tick, node, kind, reason, payload_digest(payload), tx, contract)
        self.trace.append(rec)
        if tx is not None:
            self.by_tx.setdefault(tx, []).append(rec)

    def trace_lines(self) -> str:
        return "\n".join(r.line() for r in self.trace) + ("\n" if self.trace else "")

    # -- faults ---------------------------------------------------------------

    def inject(self, spec: FaultSpec) -> None:
        if spec.at_step is not None:
            self._pending_faults.append(spec)
        else:
            at = spec.at_tick or 0
            if at <= self.tick:
                self._arm(spec)
            else:
                self._push(at, "arm_fault", spec)

    def _arm(self, spec: FaultSpec) -> None:
        armed = _ArmedFault(spec=spec, armed_at=self.tick, remaining=spec.count)
        self._faults.append(armed)
        self.record(spec.node or "-", "fault", f"armed:{spec.kind}", spec)
        if spec.kind in (CRASH_NODE, REMOVE_VALIDATOR) and spec.node is not None:
            self._crash(spec.node)

    def _crash(self, node_id: str) -> None:
        if node_id not in self.crashed:
            self.crashed.add(node_id)
            self.record(node_id, "crash", "node-crashed")

    def is_fault_active(self, kind: str, node_id: str) -> bool:
        """Whether a fault of this kind applies to node_id now; a hit
        uses up one of the fault's ``count`` applications."""
        for armed in self._faults:
            if (armed.spec.kind == kind and armed.spec.node == node_id
                    and armed.active(self.tick)):
                armed.use()
                return True
        return False

    def step(self, node_id: str, reason: str, payload=None) -> None:
        """Protocol-step hook: traces the step, arms step-triggered
        faults, and raises NodeCrashed when a crash fault fires here."""
        if node_id in self.crashed:
            raise NodeCrashed(node_id)
        self.record(node_id, "step", reason, payload)
        fired = [f for f in self._pending_faults
                 if f.at_step == reason and (f.node is None or f.node == node_id)]
        for spec in fired:
            self._pending_faults.remove(spec)
            self._arm(spec)
        if node_id in self.crashed:
            raise NodeCrashed(node_id)

    def _message_intercepted(self, msg: Message) -> Optional[str]:
        for armed in self._faults:
            spec = armed.spec
            if not armed.active(self.tick):
                continue
            if spec.kind == PARTITION:
                a, b = spec.groups
                if ((msg.sender in a and msg.recipient in b)
                        or (msg.sender in b and msg.recipient in a)):
                    return "partitioned"
            elif spec.kind == DROP_MESSAGE and armed.matches(msg):
                armed.use()
                return "dropped"
        return None

    def _message_delay(self, msg: Message) -> int:
        extra = 0
        for armed in self._faults:
            if (armed.spec.kind == DELAY_MESSAGE and armed.active(self.tick)
                    and armed.matches(msg)):
                armed.use()
                extra += armed.spec.extra_delay
        return extra

    # -- scheduling ---------------------------------------------------------

    def _push(self, tick: int, kind: str, payload) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (tick, self._seq, kind, payload))

    def send(self, msg: Message, latency: Optional[int] = None) -> None:
        """Schedule delivery after latency plus seeded jitter, unless a
        fault intercepts (drops are silent to the sender, logged)."""
        verdict = self._message_intercepted(msg)
        if verdict is not None:
            self.record(msg.sender, "drop", f"{verdict}:{msg.mtype}", msg.body)
            return
        lat = self.default_latency if latency is None else latency
        lat += self._message_delay(msg)
        if self.jitter:
            lat += self.rng.randrange(self.jitter + 1)
        self.record(msg.sender, "send", msg.mtype, msg.body)
        self._push(self.tick + max(lat, 0), "deliver", msg)

    def set_timer(self, node_id: str, tag, at_tick: int) -> None:
        self._push(max(at_tick, self.tick), "timer", (node_id, tag))

    def call_soon(self, fn: Callable, delay: int = 0) -> None:
        """Schedule a scenario action or engine continuation."""
        self._push(self.tick + delay, "action", fn)

    # -- the loop ------------------------------------------------------------

    def _advance_clocks(self, new_tick: int) -> None:
        for name, chain, interval in self._clocks:
            target = new_tick // interval
            while chain.block_number < target:
                chain.advance_block(1)
                self.record(name, "block", f"height:{chain.block_number}")

    def run_until_quiescent(self, max_ticks: int = 100_000) -> List[TraceRecord]:
        """Execute events in total order until the queue drains or the
        tick limit is exceeded (reported in the trace, not raised)."""
        while self._queue:
            tick, _seq, kind, payload = self._queue[0]
            if tick > max_ticks:
                self.tick_limit_hit = True
                self.record("-", "halt", f"tick-limit:{max_ticks}")
                break
            heapq.heappop(self._queue)
            if tick > self.tick:
                self._advance_clocks(tick)
                self.tick = tick
            self._dispatch(kind, payload)
        return self.trace

    def _dispatch(self, kind: str, payload) -> None:
        if kind == "arm_fault":
            self._arm(payload)
            return
        if kind == "action":
            try:
                payload()
            except NodeCrashed:
                pass
            return
        if kind == "deliver":
            msg: Message = payload
            if msg.recipient in self.crashed:
                self.record(msg.recipient, "drop", f"recipient-crashed:{msg.mtype}")
                return
            node = self._nodes.get(msg.recipient)
            if node is None:
                self.record(msg.recipient, "drop", f"unknown-recipient:{msg.mtype}")
                return
            self.record(msg.recipient, "deliver", msg.mtype, msg.body)
            try:
                node.on_message(msg)
            except NodeCrashed:
                pass
            return
        if kind == "timer":
            node_id, tag = payload
            if node_id in self.crashed:
                return
            node = self._nodes.get(node_id)
            if node is None:
                return
            self.record(node_id, "timer", tag_str(tag))
            try:
                node.on_timer(tag)
            except NodeCrashed:
                pass
