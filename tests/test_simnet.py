from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path

import pytest

from xchain import simnet
from xchain.scenario import Scenario
from xchain.simnet import FaultSpec, FaultError, Message, NodeCrashed, SimNet, _canon

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


class Recorder:
    """Minimal node: logs deliveries, can echo back."""

    def __init__(self, net, node_id, echo_to=None):
        self.net = net
        self.node_id = node_id
        self.echo_to = echo_to
        self.messages = []
        self.timers = []
        net.register(node_id, self)

    def on_message(self, msg):
        self.messages.append((self.net.tick, msg.mtype, msg.body))
        if self.echo_to:
            self.net.send(Message(self.node_id, self.echo_to, "echo", {}),
                          latency=1)

    def on_timer(self, tag):
        self.timers.append((self.net.tick, tag))


def test_empty_queue_empty_trace():
    net = SimNet(seed=1)
    assert net.run_until_quiescent() == []


def test_latency_and_tie_break_order():
    net = SimNet(seed=1)
    a = Recorder(net, "a")
    net.send(Message("x", "a", "m1", {"n": 1}), latency=3)
    net.send(Message("x", "a", "m2", {"n": 2}), latency=3)
    net.send(Message("x", "a", "m0", {"n": 0}), latency=2)
    net.run_until_quiescent()
    assert [m[1] for m in a.messages] == ["m0", "m1", "m2"]
    assert a.messages[0][0] == 2 and a.messages[1][0] == 3


def test_determinism_same_seed_same_trace():
    def run(seed):
        net = SimNet(seed=seed, jitter=3)
        a = Recorder(net, "a", echo_to="b")
        Recorder(net, "b")
        for i in range(20):
            net.send(Message("b", "a", f"ping{i}", {"i": i}), latency=2)
        net.run_until_quiescent()
        return net.trace_lines()

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_crash_containment():
    net = SimNet(seed=1)
    a = Recorder(net, "a")
    net.set_timer("a", "later", 50)
    net.send(Message("x", "a", "before", {}), latency=1)
    net.inject(FaultSpec(kind="crash_node", node="a", at_tick=5))
    net.send(Message("x", "a", "after", {}), latency=10)
    net.run_until_quiescent()
    assert [m[1] for m in a.messages] == ["before"]
    assert a.timers == []  # the timer never fires after the crash
    kinds = [(r.kind, r.reason) for r in net.trace]
    assert ("crash", "node-crashed") in kinds


def test_crash_at_step_raises_inside_handler():
    net = SimNet(seed=1)
    Recorder(net, "a")
    net.inject(FaultSpec(kind="crash_node", node="a", at_step="doing:thing"))
    net.step("a", "doing:other")  # different step: no crash
    with pytest.raises(NodeCrashed):
        net.step("a", "doing:thing")
    assert "a" in net.crashed


def test_drop_message_by_type_and_count():
    net = SimNet(seed=1)
    a = Recorder(net, "a")
    net.inject(FaultSpec(kind="drop_message", mtype="victim", count=2))
    for i in range(4):
        net.send(Message("x", "a", "victim", {"i": i}), latency=1)
    net.send(Message("x", "a", "spared", {}), latency=1)
    net.run_until_quiescent()
    victims = [m for m in a.messages if m[1] == "victim"]
    assert len(victims) == 2  # first two were dropped
    assert any(m[1] == "spared" for m in a.messages)
    drops = [r for r in net.trace if r.kind == "drop"]
    assert len(drops) == 2


def test_partition_blocks_cross_group_traffic():
    net = SimNet(seed=1)
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    net.inject(FaultSpec(kind="partition",
                         groups=(frozenset({"a"}), frozenset({"b"})),
                         duration=10))
    net.send(Message("a", "b", "blocked", {}), latency=1)
    net.run_until_quiescent()
    assert b.messages == []
    # after the partition heals
    net2 = SimNet(seed=1)
    b2 = Recorder(net2, "b")
    net2.inject(FaultSpec(kind="partition",
                          groups=(frozenset({"a"}), frozenset({"b"})),
                          duration=5))
    net2.set_timer("b", "wake", 6)

    class Sender:
        def __init__(self):
            net2.register("a", self)

        def on_message(self, msg):
            pass

        def on_timer(self, tag):
            pass
    Sender()
    # deliver after the partition expires: schedule the send at tick 6
    net2.call_soon(lambda: net2.send(Message("a", "b", "late", {}), latency=1),
                   delay=6)
    net2.run_until_quiescent()
    assert [m[1] for m in b2.messages] == ["late"]


def test_delay_message_adds_latency():
    net = SimNet(seed=1)
    a = Recorder(net, "a")
    net.inject(FaultSpec(kind="delay_message", mtype="slow", extra_delay=7))
    net.send(Message("x", "a", "slow", {}), latency=1)
    net.send(Message("x", "a", "fast", {}), latency=1)
    net.run_until_quiescent()
    arrival = {m[1]: m[0] for m in a.messages}
    assert arrival["fast"] == 1
    assert arrival["slow"] == 8


def test_delay_message_honours_link():
    net = SimNet(seed=1)
    a = Recorder(net, "a")
    b = Recorder(net, "b")
    net.inject(FaultSpec(kind="delay_message", link=("a", "b"), extra_delay=7))
    net.send(Message("a", "b", "m", {}), latency=1)
    net.send(Message("b", "a", "m", {}), latency=1)
    net.run_until_quiescent()
    assert [m[0] for m in b.messages] == [8]
    assert [m[0] for m in a.messages] == [1]  # b -> a keeps its latency


def test_corrupt_share_honours_count():
    net = SimNet(seed=1)
    net.inject(FaultSpec(kind="corrupt_share", node="a", count=1))
    assert not net.is_fault_active(simnet.CORRUPT_SHARE, "b")
    assert [net.is_fault_active(simnet.CORRUPT_SHARE, "a")
            for _ in range(3)] == [True, False, False]


def test_block_clock_binding():
    class Chain:
        block_interval = 10
        block_number = 0

        def advance_block(self, n):
            self.block_number += n

    net = SimNet(seed=1)
    chain = Chain()
    net.bind_clock("coord", chain)
    Recorder(net, "a")
    net.send(Message("x", "a", "late", {}), latency=35)
    net.run_until_quiescent()
    assert chain.block_number == 3
    blocks = [r for r in net.trace if r.kind == "block"]
    assert [r.reason for r in blocks] == ["height:1", "height:2", "height:3"]


def test_tick_limit_reported_not_raised():
    net = SimNet(seed=1)
    Recorder(net, "a")
    net.send(Message("x", "a", "too-late", {}), latency=1000)
    net.run_until_quiescent(max_ticks=100)
    assert net.tick_limit_hit
    assert any(r.kind == "halt" for r in net.trace)


def test_fault_validation():
    with pytest.raises(FaultError):
        FaultSpec(kind="meteor_strike")
    with pytest.raises(FaultError):
        FaultSpec(kind="partition")  # missing groups
    net = SimNet(seed=1)
    Recorder(net, "a")
    with pytest.raises(FaultError):
        net.register("a", object())  # duplicate id


# --- payload canonical form ----------------------------------------------------------

def _canon_reference(obj) -> str:
    """The canonical form as one chain of checks, with no memo."""
    if obj is None:
        return "~"
    if isinstance(obj, bool):
        return "T" if obj else "F"
    if isinstance(obj, (bytes, bytearray)):
        return "x" + bytes(obj).hex()
    if isinstance(obj, str):
        return "s" + obj
    if isinstance(obj, Enum):
        return f"e{obj.__class__.__name__}.{obj.name}"
    if is_dataclass(obj) and not isinstance(obj, type):
        inner = ",".join(
            f"{f.name}={_canon_reference(getattr(obj, f.name))}" for f in fields(obj))
        return f"{obj.__class__.__name__}({inner})"
    if isinstance(obj, dict):
        inner = ",".join(
            f"{_canon_reference(k)}:{_canon_reference(v)}" for k, v in sorted(
                obj.items(), key=lambda kv: _canon_reference(kv[0])))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon_reference(v) for v in obj) + "]"
    try:
        return "i" + str(int(obj))
    except (TypeError, ValueError):
        return "r" + repr(obj)


@dataclass(frozen=True)
class _Box:
    value: object


@dataclass(frozen=True)
class _Pair:
    left: object
    right: object


@pytest.mark.parametrize("first,second", [
    (True, 1), (1, True), (b"ab", bytearray(b"ab")), (bytearray(b"ab"), b"ab")])
def test_canon_memo_is_per_instance_not_per_value(first, second):
    a, b = _Box(first), _Box(second)
    assert a == b  # a memo keyed by value would give b the text of a
    for value in (a, b, a, b, _Pair(a, b), _Pair(b, a), (a, b), {"k": b}):
        assert _canon(value) == _canon_reference(value)


def test_canon_follows_mutable_contents_of_a_frozen_value():
    blob, items = bytearray(b"ab"), [1]
    boxes = _Pair(_Box(blob), _Box((items, 2)))
    before = _canon(boxes)
    blob[0] = 0x7A
    items.append(True)
    assert _canon(boxes) == _canon_reference(boxes) != before


def test_canon_of_every_scenario_payload_matches_reference(monkeypatch):
    payloads = []
    digest = simnet.payload_digest

    def spy(obj):
        payloads.append(obj)
        return digest(obj)

    monkeypatch.setattr(simnet, "payload_digest", spy)
    Scenario.load(str(SCENARIO_DIR / "conditional_buy.scn")).run()
    assert len(payloads) > 100
    # twice: the second pass reads the memo of every frozen value
    for _ in range(2):
        for obj in payloads:
            assert _canon(obj) == _canon_reference(obj)
