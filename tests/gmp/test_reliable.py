"""Unit tests for the reliable communication layer."""

import pytest

from repro.core import PFILayer, TclishFilter, make_env
from repro.gmp.daemon import gmp_stubs
from repro.gmp.reliable import RelHeader, ReliableChannel
from repro.gmp.udp import UDPProtocol
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol
from repro.xkernel.stack import NodeAnchor, ProtocolStack


class TopSink(Protocol):
    def __init__(self):
        super().__init__("sink")
        self.got = []

    def pop(self, msg):
        self.got.append(msg)


class DropGate(Protocol):
    """Between reliable and UDP: programmable loss."""

    def __init__(self):
        super().__init__("gate")
        self.drop_next = 0
        self.drop_all = False
        self.passed = 0

    def push(self, msg):
        if self.drop_all or self.drop_next > 0:
            if self.drop_next > 0:
                self.drop_next -= 1
            return
        self.passed += 1
        self.send_down(msg)


def build_pair():
    env = make_env()
    tops, gates, channels = {}, {}, {}
    for addr in (1, 2):
        node = env.network.add_node(f"h{addr}", addr)
        top = TopSink()
        channel = ReliableChannel(addr, env.scheduler, trace=env.trace)
        gate = DropGate()
        ProtocolStack(f"s{addr}").build(top, channel, gate,
                                        UDPProtocol(addr), NodeAnchor(node))
        tops[addr], gates[addr], channels[addr] = top, gate, channel
    return env, tops, gates, channels


def send(channels, src, dst, text, reliable=True):
    msg = Message(payload=text)
    msg.meta["dst"] = dst
    msg.meta["reliable"] = reliable
    channels[src].push(msg)


def test_delivery_without_loss():
    env, tops, _, channels = build_pair()
    send(channels, 1, 2, "hello")
    env.run_until(1.0)
    assert [m.payload for m in tops[2].got] == ["hello"]


def test_retransmission_recovers_loss():
    env, tops, gates, channels = build_pair()
    gates[1].drop_next = 1
    send(channels, 1, 2, "retry me")
    env.run_until(5.0)
    assert [m.payload for m in tops[2].got] == ["retry me"]


def test_retries_bounded_then_abandoned():
    env, tops, gates, channels = build_pair()
    gates[1].drop_all = True
    send(channels, 1, 2, "never")
    env.run_until(30.0)
    assert tops[2].got == []
    assert channels[1].abandoned_count == 1
    # after abandoning, no more retransmissions are attempted
    count = env.trace.count("rel.retransmit", node=1)
    assert count == channels[1].max_retries


def test_duplicates_suppressed():
    env, tops, gates, channels = build_pair()
    # drop the ACK so the sender retransmits, producing a duplicate
    gates[2].drop_next = 1
    send(channels, 1, 2, "once only")
    env.run_until(5.0)
    assert [m.payload for m in tops[2].got] == ["once only"]
    assert channels[2].duplicate_count >= 1


def test_unreliable_messages_not_retried():
    env, tops, gates, channels = build_pair()
    gates[1].drop_next = 1
    send(channels, 1, 2, "heartbeat", reliable=False)
    env.run_until(10.0)
    assert tops[2].got == []
    assert env.trace.count("rel.retransmit", node=1) == 0


def test_unreliable_messages_delivered():
    env, tops, _, channels = build_pair()
    send(channels, 1, 2, "hb", reliable=False)
    env.run_until(1.0)
    assert [m.payload for m in tops[2].got] == ["hb"]


def test_per_peer_sequence_numbers():
    env, tops, _, channels = build_pair()
    for i in range(5):
        send(channels, 1, 2, f"m{i}")
    env.run_until(2.0)
    assert [m.payload for m in tops[2].got] == [f"m{i}" for i in range(5)]


def test_bidirectional_traffic():
    env, tops, _, channels = build_pair()
    send(channels, 1, 2, "ping")
    send(channels, 2, 1, "pong")
    env.run_until(1.0)
    assert [m.payload for m in tops[2].got] == ["ping"]
    assert [m.payload for m in tops[1].got] == ["pong"]


def test_push_without_dst_raises():
    env, _, _, channels = build_pair()
    with pytest.raises(ValueError):
        channels[1].push(Message(payload="lost"))


def test_ack_messages_not_delivered_up():
    env, tops, _, channels = build_pair()
    send(channels, 1, 2, "data")
    env.run_until(2.0)
    # node 1 received the reliable-layer ACK but nothing surfaced
    assert tops[1].got == []


# ----------------------------------------------------------------------
# one RelHeader per transmission
# ----------------------------------------------------------------------


class WireTap(Protocol):
    """Below the reliable layer: keeps every transmission, passes none."""

    def __init__(self):
        super().__init__("tap")
        self.sent = []

    def push(self, msg):
        self.sent.append(msg)


def build_tapped(send_filter=None):
    """Host 1's stack with a tap under the reliable layer, and a PFI layer
    between them when ``send_filter`` is given."""
    env = make_env()
    node = env.network.add_node("h1", 1)
    channel = ReliableChannel(1, env.scheduler, trace=env.trace)
    middle = []
    if send_filter is not None:
        pfi = PFILayer("pfi1", env.scheduler, gmp_stubs(), trace=env.trace)
        pfi.set_send_filter(send_filter)
        middle.append(pfi)
    tap = WireTap()
    ProtocolStack("s1").build(TopSink(), channel, *middle, tap,
                              UDPProtocol(1), NodeAnchor(node))
    return env, channel, tap


def test_pending_original_carries_no_header():
    env, channel, _ = build_tapped()
    send({1: channel}, 1, 2, "keep me bare")
    (pending,) = channel._pending.values()
    assert pending.msg.headers == []
    env.run_until(0.5)  # after a retry too
    assert pending.retries == 1
    assert pending.msg.headers == []


def test_every_transmission_carries_its_own_rel_header():
    env, channel, tap = build_tapped()
    send({1: channel}, 1, 2, "first")
    send({1: channel}, 1, 2, "second")
    env.run_until(30.0)
    assert channel.abandoned_count == 2
    by_payload = {}
    for wire in tap.sent:
        by_payload.setdefault(wire.payload, []).append(wire)
    for seq, payload in enumerate(["first", "second"]):
        wires = by_payload[payload]
        # the first send and every retry
        assert len(wires) == 1 + channel.max_retries
        for wire in wires:
            assert wire.headers == [RelHeader(seq)]
        headers = [wire.headers[0] for wire in wires]
        assert len({id(header) for header in headers}) == len(headers)


def test_set_field_on_one_transmission_misses_the_next_retry():
    rewrite_first = TclishFilter(
        "if {$n == 0} {msg_set_field seq 99}; incr n", init_script="set n 0")
    env, channel, tap = build_tapped(rewrite_first)
    send({1: channel}, 1, 2, "rewritten once")
    (pending,) = channel._pending.values()
    env.run_until(30.0)
    assert [wire.headers[-1].seq for wire in tap.sent] == \
        [99] + [0] * channel.max_retries
    assert pending.msg.headers == []
