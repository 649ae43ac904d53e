"""Trace export/import: JSON-lines dumps for external analysis.

Experiments produce :class:`~repro.netsim.trace.TraceRecorder` objects;
this module serializes them to the JSON-lines format (one entry per line)
so runs can be archived, diffed between versions, or analyzed with
external tooling, and loads them back for offline queries.

Non-JSON-native attribute values (tuples, sets, bytes) are converted to
JSON-friendly forms on export; tuples come back as lists, which the
comparison helpers normalize.

Every line is rendered by :func:`encode_entry`, and :class:`TraceDigest`
hashes the same text incrementally, so a digest of a shared prefix can
be extended by each continuation instead of re-encoding the prefix.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import (IO, AbstractSet, Any, Dict, Iterable, Optional,
                    Union)

from repro.netsim.trace import TraceEntry, TraceRecorder

#: the one encoder every export line goes through.  It only ever sees
#: scalars and trees ``_jsonable`` has just built, so the circular-reference
#: check has nothing to find; the text matches ``json.dumps(...,
#: sort_keys=True)`` byte for byte
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)

#: attribute value types that are already JSON-native, tested by exact
#: type on the per-entry fast path (subclasses go through ``_jsonable``)
_PLAIN = frozenset({str, int, float, bool, type(None)})


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = [_jsonable(v) for v in value]
        try:
            return sorted(items)
        except TypeError:
            # mixed element types have no natural order; their encoded
            # text always has one, and elements whose text ties export
            # identically, so set iteration order never shows
            return sorted(items, key=_ENCODER.encode)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def _from_jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__bytes__"}:
            return bytes.fromhex(value["__bytes__"])
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


#: attributes that are process-global bookkeeping rather than experiment
#: state: message uids keep counting across runs in one process, so two
#: otherwise-identical runs differ in them.  ``original`` and ``parent``
#: are lineage edges (uid-valued) and share the same volatility.
VOLATILE_ATTRS = ("uid", "original", "parent")


def _entry_dict(entry: TraceEntry,
                excluded: AbstractSet[str]) -> Dict[str, Any]:
    return {"t": entry.time, "kind": entry.kind,
            "attrs": {k: v if type(v) in _PLAIN else _jsonable(v)
                      for k, v in entry.attrs.items()
                      if k not in excluded}}


def entry_to_dict(entry: TraceEntry, *,
                  exclude_attrs: Iterable[str] = ()) -> Dict[str, Any]:
    """One trace entry as a plain JSON-compatible dict."""
    return _entry_dict(entry, frozenset(exclude_attrs))


def encode_entry(entry: TraceEntry,
                 excluded: AbstractSet[str] = frozenset()) -> str:
    """One trace entry as its export line (without the newline).

    Every export path renders entries through here, so a dump, a
    stream, a comparison and an outcome digest of the same entry always
    see the same text.  ``excluded`` is a set of attribute names to
    drop; callers build it once per trace, not once per entry.
    """
    return _ENCODER.encode(_entry_dict(entry, excluded))


def dump_trace(trace: Iterable[TraceEntry],
               fp: Optional[IO[str]] = None, *,
               exclude_attrs: Iterable[str] = ()) -> str:
    """Serialize a trace to JSON lines; returns the text (and writes to
    ``fp`` if given).

    ``exclude_attrs`` drops named attributes from every entry; pass
    :data:`VOLATILE_ATTRS` when the dump is for run-to-run comparison.
    """
    excluded = frozenset(exclude_attrs)
    lines = [encode_entry(entry, excluded) for entry in trace]
    text = "\n".join(lines)
    if fp is not None:
        fp.write(text)
        if lines:
            fp.write("\n")
    return text


def stream_trace(trace: Iterable[TraceEntry], fp: IO[str], *,
                 exclude_attrs: Iterable[str] = (),
                 buffer_lines: int = 1024) -> int:
    """Write a trace to ``fp`` as JSON lines without building the full text.

    Lines are flushed in batches of ``buffer_lines``, so exporting a
    million-entry campaign trace holds at most one batch of rendered lines
    in memory instead of the whole dump (:func:`dump_trace` materializes
    everything because it also returns the text).  The byte output is
    identical to ``dump_trace(trace, fp)``.  Returns the entry count.
    """
    excluded = frozenset(exclude_attrs)
    buffer: list = []
    count = 0
    for entry in trace:
        buffer.append(encode_entry(entry, excluded))
        count += 1
        if len(buffer) >= buffer_lines:
            fp.write("\n".join(buffer))
            fp.write("\n")
            buffer.clear()
    if buffer:
        fp.write("\n".join(buffer))
        fp.write("\n")
    return count


class TraceDigest:
    """An incremental sha256 of :func:`dump_trace` text.

    ``TraceDigest(exclude_attrs).update(entries).hexdigest()`` equals
    ``sha256(dump_trace(entries, exclude_attrs=...).encode()).hexdigest()``
    however the entries are split across :meth:`update` calls.  A
    digest of a shared trace prefix can be :meth:`copy`-ed and each copy
    extended with a different continuation, so the prefix is encoded
    once instead of once per continuation.  ``count`` is the number of
    entries digested so far.
    """

    __slots__ = ("_excluded", "_sha", "count")

    def __init__(self, exclude_attrs: Iterable[str] = ()):
        self._excluded = frozenset(exclude_attrs)
        self._sha = hashlib.sha256()
        self.count = 0

    def update(self, entries: Iterable[TraceEntry]) -> "TraceDigest":
        """Digest ``entries`` as the next lines of the dump; returns self."""
        excluded = self._excluded
        lines = [encode_entry(entry, excluded) for entry in entries]
        if lines:
            text = "\n".join(lines)
            self._sha.update(
                ("\n" + text if self.count else text).encode())
            self.count += len(lines)
        return self

    def copy(self) -> "TraceDigest":
        """An independent digest of the same entries so far."""
        clone = TraceDigest.__new__(TraceDigest)
        clone._excluded = self._excluded
        clone._sha = self._sha.copy()
        clone.count = self.count
        return clone

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def export_trace(trace: Iterable[TraceEntry], path: Union[str, Path], *,
                 exclude_attrs: Iterable[str] = ()) -> int:
    """Stream a trace to a JSONL file on disk; returns the entry count."""
    with open(path, "w", encoding="utf-8") as fp:
        return stream_trace(trace, fp, exclude_attrs=exclude_attrs)


def load_trace(source: Union[str, IO[str]]) -> TraceRecorder:
    """Parse JSON lines back into a queryable TraceRecorder."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = source
    trace = TraceRecorder(clock=lambda: 0.0)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        attrs = {k: _from_jsonable(v)
                 for k, v in record.get("attrs", {}).items()}
        trace.record(record["kind"], t=record["t"], **attrs)
    return trace


def traces_equal(a: Iterable[TraceEntry], b: Iterable[TraceEntry]) -> bool:
    """Compare two traces modulo JSON round-trip normalization.

    Useful for regression pinning: run an experiment twice (or across
    versions) and assert the traces match exactly.
    """
    return ([encode_entry(e) for e in a]
            == [encode_entry(e) for e in b])
