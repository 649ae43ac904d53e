"""A fixed pure-Python reference loop that measures the machine's speed.

On a shared 2-core KVM guest the speed of the same Python work drifts by
20-40% over tens of seconds, which swamps any change to the program.
The benchmark runs this loop around every timed leg and reports times
*at reference speed*: a measured time scaled by how much slower or
faster the loop ran in the same run than its nominal time
(:data:`REFERENCE_S`), so the drift cancels.

The loop mimics the program's instruction mix (a heap-driven event loop,
bound-method callbacks, frozen-dataclass header copies, dict counters,
string formatting, one deepcopy) but imports nothing from repro, so no
change to the program moves it.  Changing this file changes the unit of
every adjusted time; do it only in a change that re-baselines the
benchmark.
"""

from __future__ import annotations

import copy
import heapq
import statistics
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Sequence

#: messages each of the four chains exchanges
CHAIN_LENGTH = 8000

#: nominal seconds of one reference loop (about its mean on a shared
#: 2-core Intel Xeon 2.0 GHz KVM guest); a constant, so it cancels in
#: any comparison between two commits
REFERENCE_S = 0.16


@dataclass(frozen=True)
class _Header:
    src: int
    dst: int
    seq: int
    kind: str


class _Node:
    def __init__(self, name: str):
        self.name = name
        self.seen: dict = {}
        self.log: list = []

    def receive(self, loop: "_Loop", header: _Header) -> None:
        self.seen[header.kind] = self.seen.get(header.kind, 0) + 1
        if header.seq % 7 == 0:
            self.log.append(f"{self.name}:{header.seq}:{header.kind}")
        if header.seq < CHAIN_LENGTH:
            reply = replace(header, src=header.dst, dst=header.src,
                            seq=header.seq + 1,
                            kind="ack" if header.kind == "data" else "data")
            loop.schedule(0.001 * (header.seq % 5 + 1),
                          loop.nodes[reply.dst].receive, loop, reply)


class _Loop:
    def __init__(self):
        self.heap: list = []
        self.seq = 0
        self.now = 0.0
        self.nodes: dict = {}

    def schedule(self, delay: float, callback, *args) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, callback, args))

    def run(self) -> int:
        dispatched = 0
        while self.heap:
            time, _seq, callback, args = heapq.heappop(self.heap)
            self.now = time
            callback(*args)
            dispatched += 1
        return dispatched


def reference_loop() -> int:
    """Run the reference work once; returns the events it dispatched."""
    loop = _Loop()
    for index in range(4):
        loop.nodes[index] = _Node(f"n{index}")
    for index in range(4):
        loop.schedule(0.0, loop.nodes[index].receive, loop,
                      _Header(index, (index + 1) % 4, index * 7, "data"))
    dispatched = loop.run()
    copy.deepcopy([node.seen for node in loop.nodes.values()])
    return dispatched


def time_reference() -> float:
    """Seconds one reference loop takes now."""
    started = perf_counter()
    reference_loop()
    return perf_counter() - started


def at_reference_speed(seconds: float, reference: Sequence[float]) -> float:
    """``seconds`` measured alongside ``reference`` loops, at nominal speed.

    The loops are short enough that each lands wholly in one fast or
    slow spell of the machine, so their mean, not their median, is the
    average speed over the measurement.
    """
    return seconds * REFERENCE_S / statistics.fmean(reference)
