"""Every export path renders the same text, however the trace is fed.

``dump_trace``, ``stream_trace``, ``traces_equal`` and the incremental
``TraceDigest`` all go through one line encoder.  These properties pin
that they agree with each other and with the historical line formula
``json.dumps(entry_to_dict(entry, exclude_attrs=...), sort_keys=True)``
over arbitrary attribute payloads: bytes, tuples, sets (mixed-type ones
included), nested dicts, objects that fall back to ``repr`` and the
volatile lineage keys.
"""

import hashlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.export import (VOLATILE_ATTRS, TraceDigest, dump_trace,
                                   encode_entry, entry_to_dict, load_trace,
                                   stream_trace, traces_equal)
from repro.netsim.trace import TraceEntry


class Opaque:
    """An attribute value with no JSON form: exported as its repr."""

    def __init__(self, tag: int):
        self.tag = tag

    def __repr__(self) -> str:
        return f"<opaque {self.tag}>"


scalars = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
           | st.floats(allow_nan=False, width=32)
           | st.text(max_size=6) | st.binary(max_size=4))
hashables = st.recursive(
    scalars, lambda inner: st.tuples(inner, inner), max_leaves=4)
# sets of one element type sort naturally; mixed ones sort by their text
values = st.recursive(
    scalars | st.builds(Opaque, st.integers(0, 9))
    | st.sets(hashables, max_size=4) | st.frozensets(hashables, max_size=4)
    | st.frozensets(st.integers(-50, 50), max_size=5),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=3)
                                     | st.integers(0, 9), inner,
                                     max_size=3)),
    max_leaves=8)
attr_names = st.sampled_from(VOLATILE_ATTRS + ("seq", "node", "view",
                                               "payload", "note"))
entries = st.builds(
    TraceEntry,
    st.floats(0, 1e4, allow_nan=False),
    st.sampled_from(("gmp.commit", "tcp.transmit", "pfi.drop", "x")),
    st.dictionaries(attr_names, values, max_size=4))
traces = st.lists(entries, max_size=12)
excludes = st.sampled_from(((), VOLATILE_ATTRS, ("seq", "uid")))


@settings(max_examples=150, deadline=None)
@given(traces, excludes, st.lists(st.integers(0, 12), max_size=4))
def test_digest_in_any_split_equals_one_shot(trace, exclude, cuts):
    one_shot = hashlib.sha256(
        dump_trace(trace, exclude_attrs=exclude).encode()).hexdigest()
    bounds = [0] + sorted(min(c, len(trace)) for c in cuts) + [len(trace)]
    digest = TraceDigest(exclude)
    for lo, hi in zip(bounds, bounds[1:]):
        digest.update(trace[lo:hi])
    assert digest.count == len(trace)
    assert digest.hexdigest() == one_shot
    # a shared prefix digest, copied and extended, is still the one-shot
    split = bounds[len(bounds) // 2]
    prefix = TraceDigest(exclude).update(trace[:split])
    assert prefix.copy().update(trace[split:]).hexdigest() == one_shot
    assert prefix.count == split


@settings(max_examples=150, deadline=None)
@given(traces, excludes)
def test_line_encoder_matches_the_json_dumps_formula(trace, exclude):
    excluded = frozenset(exclude)
    for entry in trace:
        assert encode_entry(entry, excluded) == json.dumps(
            entry_to_dict(entry, exclude_attrs=exclude), sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(traces, excludes, st.integers(1, 5))
def test_stream_trace_bytes_match_dump_trace(trace, exclude, batch):
    whole = io.StringIO()
    text = dump_trace(trace, whole, exclude_attrs=exclude)
    streamed = io.StringIO()
    count = stream_trace(trace, streamed, exclude_attrs=exclude,
                         buffer_lines=batch)
    assert streamed.getvalue() == whole.getvalue()
    assert whole.getvalue() == (text + "\n" if trace else "")
    assert count == len(trace)


@settings(max_examples=100, deadline=None)
@given(traces, traces)
def test_traces_equal_is_dump_equality(a, b):
    assert traces_equal(a, b) == (dump_trace(a) == dump_trace(b))
    # an export round trip normalizes values but not the text
    assert traces_equal(a, load_trace(dump_trace(a)))
