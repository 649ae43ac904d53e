"""Reliable communication layer over UDP.

"A Reliable communication layer was implemented using retransmission
timers and sequence numbers."  This layer provides per-peer, at-most-once,
bounded-retry delivery for GMP control messages; heartbeats are marked
unreliable and bypass the machinery (a lost heartbeat is itself a signal).

Per peer, each direction keeps:

- a send sequence number; unacknowledged messages are retransmitted up to
  ``max_retries`` times at ``retry_interval`` before being abandoned;
- a receive dedup window: a message with an already-seen sequence number
  is acknowledged again but not delivered up.

The layer sits *above* the PFI layer in the GMP stack
(gmd / reliable / **PFI** / UDP), matching Figure 5 of the paper: the PFI
tool was inserted "into the communication interface code where udp send
and receive calls were made", so injected faults see reliable-layer
retransmissions as distinct wire messages to drop or delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from repro.netsim.scheduler import Scheduler
from repro.netsim.timer import Timer
from repro.netsim.trace import TraceRecorder
from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol
from repro.netsim import kinds as K


@dataclass
class RelHeader:
    """Reliable-layer header."""

    seq: int
    is_ack: bool = False
    reliable: bool = True

    def clone(self) -> "RelHeader":
        """Message header ``clone()`` protocol: a constructor call."""
        return RelHeader(self.seq, self.is_ack, self.reliable)


@dataclass
class _Pending:
    msg: Message               # the original, without a RelHeader
    dst: int
    seq: int
    retries: int = 0
    timer: Optional[Timer] = None


class ReliableChannel(Protocol):
    """Bounded-retry reliable delivery above the PFI/UDP layers."""

    def __init__(self, local_address: int, scheduler: Scheduler, *,
                 max_retries: int = 3, retry_interval: float = 0.4,
                 trace: Optional[TraceRecorder] = None,
                 name: str = "reliable"):
        super().__init__(name)
        self.local_address = local_address
        self.scheduler = scheduler
        self.max_retries = max_retries
        self.retry_interval = retry_interval
        self.trace = trace
        self._next_seq: Dict[int, int] = {}
        self._pending: Dict[Tuple[int, int], _Pending] = {}
        self._seen: Dict[int, Set[int]] = {}
        self.abandoned_count = 0
        self.duplicate_count = 0

    # ------------------------------------------------------------------
    # downward path
    # ------------------------------------------------------------------

    def push(self, msg: Message) -> None:
        dst = msg.meta.get("dst")
        if dst is None:
            raise ValueError("reliable layer needs meta['dst']")
        reliable = msg.meta.get("reliable", True)
        seq = self._next_seq.get(dst, 0)
        self._next_seq[dst] = seq + 1
        if reliable:
            pending = _Pending(msg=msg, dst=dst, seq=seq)
            pending.timer = Timer(self.scheduler, self._retry,
                                  args=(pending,),
                                  name=f"rel/{self.local_address}->{dst}/{seq}")
            pending.timer.start(self.retry_interval)
            self._pending[(dst, seq)] = pending
        self.send_down(self._wire_copy(msg, seq, reliable))

    def _retry(self, pending: _Pending) -> None:
        key = (pending.dst, pending.seq)
        if key not in self._pending:
            return
        if pending.retries >= self.max_retries:
            del self._pending[key]
            self.abandoned_count += 1
            self._record(K.REL_ABANDON, dst=pending.dst, seq=pending.seq)
            return
        pending.retries += 1
        wire = self._wire_copy(pending.msg, pending.seq, True)
        self._record(K.REL_RETRANSMIT, dst=pending.dst, seq=pending.seq,
                     attempt=pending.retries, uid=wire.uid,
                     parent=pending.msg.uid, relation="retransmit")
        self.send_down(wire)
        pending.timer.start(self.retry_interval)

    @staticmethod
    def _wire_copy(msg: Message, seq: int, reliable: bool) -> Message:
        """One transmission: a copy of ``msg`` under a fresh header, so the
        PFI layer can drop or rewrite it without touching the next one."""
        return msg.copy().push_header(RelHeader(seq, False, reliable))

    # ------------------------------------------------------------------
    # upward path
    # ------------------------------------------------------------------

    def pop(self, msg: Message) -> None:
        header = msg.top_header
        if not isinstance(header, RelHeader):
            self.send_up(msg)
            return
        msg.pop_header()
        src = msg.meta.get("src")
        if header.is_ack:
            pending = self._pending.pop((src, header.seq), None)
            if pending is not None and pending.timer is not None:
                pending.timer.stop()
            return
        if header.reliable:
            self._send_ack(src, header.seq)
            seen = self._seen.setdefault(src, set())
            if header.seq in seen:
                self.duplicate_count += 1
                self._record(K.REL_DUPLICATE, src=src, seq=header.seq)
                return
            seen.add(header.seq)
        self.send_up(msg)

    def _send_ack(self, dst: int, seq: int) -> None:
        ack = Message(payload=b"")
        ack.push_header(RelHeader(seq=seq, is_ack=True))
        ack.meta["dst"] = dst
        self.send_down(ack)

    def _record(self, kind: str, **attrs: Any) -> None:
        if self.trace is not None:
            self.trace.record(kind, t=self.scheduler.now,
                              node=self.local_address, **attrs)
