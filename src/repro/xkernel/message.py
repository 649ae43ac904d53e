"""Messages flowing through a protocol stack.

A :class:`Message` carries an application payload plus a stack of headers.
Each protocol layer pushes its header when the message travels down the
stack and pops it when the message travels back up, mirroring the x-Kernel
message model.  Headers are ordinary Python objects (usually dataclasses
such as :class:`repro.tcp.segment.Segment`); the PFI layer's recognition
stubs inspect them to classify messages by type.

Messages also carry a free-form ``meta`` dictionary for bookkeeping that is
not part of the wire format -- e.g. the PFI layer stamps injected messages,
and experiments tag messages for later trace correlation.  ``meta`` is
copied shallowly by :meth:`copy`.

Copying is eager: :meth:`copy` duplicates the header stack at once, so a
copy never shares a header object with its original.  Each header is
duplicated through the ``clone()`` protocol -- any header exposing a
``clone()`` method (TCP segments, GMP wire messages, the UDP/IP/reliable
delivery headers) is copied by that method, which calls the header's own
constructor, instead of by ``copy.deepcopy``.  The copy is not deferred:
nearly every copy in the stacks crosses a layer that pushes or pops a
header, so a copy-on-write stack would be duplicated anyway, after paying
for its bookkeeping.
"""

from __future__ import annotations

import copy as _copy
import itertools
from typing import Any, Dict, List, Optional

_message_ids = itertools.count(1)

#: payload types that are immutable and therefore shared by :meth:`copy`
_IMMUTABLE = (bytes, str, int, float, bool, type(None))


def _clone_header(header: Any) -> Any:
    """Duplicate one header: ``clone()`` protocol first, deepcopy fallback."""
    clone = getattr(header, "clone", None)
    if clone is not None:
        return clone()
    return _copy.deepcopy(header)


class Message:
    """A payload with a header stack, travelling through protocol layers."""

    __slots__ = ("payload", "headers", "meta", "uid")

    def __init__(self, payload: Any = b"", headers: Optional[List[Any]] = None,
                 meta: Optional[Dict[str, Any]] = None):
        self.payload = payload
        #: the header stack (innermost first)
        self.headers: List[Any] = list(headers) if headers else []
        self.meta: Dict[str, Any] = dict(meta) if meta else {}
        self.uid = next(_message_ids)

    # ------------------------------------------------------------------
    # header stack
    # ------------------------------------------------------------------

    def push_header(self, header: Any) -> "Message":
        """Add a header on the way down the stack.  Returns self."""
        self.headers.append(header)
        return self

    def pop_header(self) -> Any:
        """Remove and return the outermost header on the way up the stack."""
        headers = self.headers
        if not headers:
            raise IndexError("message has no headers to pop")
        return headers.pop()

    @property
    def top_header(self) -> Any:
        """The outermost header (most recently pushed), or None."""
        headers = self.headers
        return headers[-1] if headers else None

    def find_header(self, header_type: type) -> Optional[Any]:
        """The innermost-to-outermost search for a header of a given type."""
        for header in reversed(self.headers):
            if isinstance(header, header_type):
                return header
        return None

    # ------------------------------------------------------------------
    # copying / size
    # ------------------------------------------------------------------

    def copy(self) -> "Message":
        """Deep-enough copy for duplicate/modify fault injection.

        Every header is cloned (see the module docstring), so mutating
        either side's headers never leaks into the other.  Bytes and other
        immutable payloads are shared; payloads exposing ``clone()`` use
        it; anything else is deep-copied.  The copy receives a fresh uid.
        """
        payload = self.payload
        if not isinstance(payload, _IMMUTABLE):
            clone_fn = getattr(payload, "clone", None)
            payload = clone_fn() if clone_fn is not None \
                else _copy.deepcopy(payload)
        clone = Message.__new__(Message)
        clone.payload = payload
        clone.headers = [_clone_header(h) for h in self.headers]
        clone.meta = dict(self.meta)
        clone.uid = next(_message_ids)
        clone.meta["copied_from"] = self.uid
        return clone

    def __len__(self) -> int:
        """Payload length in bytes when the payload is bytes-like, else 0."""
        payload = self.payload
        if isinstance(payload, (bytes, bytearray)):
            return len(payload)
        if isinstance(payload, str):
            return len(payload.encode())
        return 0

    def __repr__(self) -> str:
        names = [type(h).__name__ for h in self.headers]
        return (f"Message(uid={self.uid}, headers={names}, "
                f"payload_len={len(self)})")
