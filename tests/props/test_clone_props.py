"""The header ``clone()`` protocol is a constructor-level copy.

``Message.copy()`` duplicates every header through its ``clone()``
method.  For each header type the stacks ship, ``clone()`` must give a
distinct object equal to ``dataclasses.replace(header)``: the same
``__init__``/``__post_init__`` path, so TCP sequence numbers still wrap
mod 2**32, a GMP ``originator`` of -1 still defaults to the sender, and
an invalid GMP kind fails the same way.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gmp.messages import ALL_KINDS, GmpMessage
from repro.gmp.reliable import RelHeader
from repro.gmp.udp import UDPHeader
from repro.tcp.ip import IPHeader
from repro.tcp.segment import Segment

ints = st.integers(-2**40, 2**40)
ports = st.integers(0, 65535)

rel_headers = st.builds(RelHeader, seq=ints, is_ack=st.booleans(),
                        reliable=st.booleans())
udp_headers = st.builds(UDPHeader, src_port=ports, dst_port=ports)
ip_headers = st.builds(IPHeader, src=ints, dst=ints,
                       proto=st.sampled_from(["tcp", "udp"]),
                       ttl=st.integers(0, 255))
# seq/ack range well past 2**32 and below zero: the constructor wraps them
segments = st.builds(Segment, src_port=ports, dst_port=ports, seq=ints,
                     ack=ints, flags=st.integers(0, 0x3F),
                     window=st.integers(0, 65535),
                     payload=st.binary(max_size=8))
gmp_messages = st.builds(
    GmpMessage, kind=st.sampled_from(ALL_KINDS), sender=st.integers(0, 9),
    originator=st.integers(-1, 9), subject=st.integers(-1, 9),
    group_id=st.integers(0, 99),
    members=st.lists(st.integers(0, 9), max_size=4).map(tuple),
    down=st.booleans())
headers = rel_headers | udp_headers | ip_headers | segments | gmp_messages


@settings(max_examples=300, deadline=None)
@given(headers)
def test_clone_is_a_distinct_replace(header):
    clone = header.clone()
    assert clone is not header
    assert type(clone) is type(header)
    assert clone == dataclasses.replace(header)


@settings(max_examples=100, deadline=None)
@given(segments)
def test_segment_copy_matches_clone(segment):
    assert segment.copy() == segment.clone() == dataclasses.replace(segment)
    assert 0 <= segment.clone().seq < 2**32
    assert 0 <= segment.clone().ack < 2**32


@settings(max_examples=100, deadline=None)
@given(segments, ints, ints)
def test_segment_clone_rewraps_out_of_range_fields(segment, seq, ack):
    # a field written out of range after construction is wrapped again
    # by the copy, exactly as replace() re-runs __post_init__
    segment.seq, segment.ack = seq, ack
    clone = segment.clone()
    assert clone == dataclasses.replace(segment)
    assert (clone.seq, clone.ack) == (seq % 2**32, ack % 2**32)


@settings(max_examples=100, deadline=None)
@given(gmp_messages, st.integers(-5, -1))
def test_gmp_clone_defaults_a_negative_originator(message, originator):
    message.originator = originator
    clone = message.clone()
    assert clone == dataclasses.replace(message)
    assert clone.originator == message.sender


def test_invalid_gmp_kind_raises_the_same_error():
    message = GmpMessage(kind=ALL_KINDS[0], sender=1)
    message.kind = "BOGUS"
    with pytest.raises(ValueError) as via_replace:
        dataclasses.replace(message)
    with pytest.raises(ValueError) as via_clone:
        message.clone()
    assert str(via_clone.value) == str(via_replace.value)
