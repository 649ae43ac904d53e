"""A minimal UDP layer.

The paper's GMP "was written as a user-level server which ran on SUN
machines on top of UDP".  This layer provides unreliable datagram
delivery: a :class:`UDPHeader` with ports is pushed going down and popped
coming up; addressing rides in message metadata like the IP layer.
Datagram loss/delay/duplication is the network's and the PFI layer's
business, not UDP's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.xkernel.message import Message
from repro.xkernel.protocol import Protocol


@dataclass
class UDPHeader:
    """Ports for one datagram."""

    src_port: int
    dst_port: int

    def clone(self) -> "UDPHeader":
        """Message header ``clone()`` protocol: a constructor call."""
        return UDPHeader(self.src_port, self.dst_port)


class UDPProtocol(Protocol):
    """Datagram layer of a GMP host's stack."""

    def __init__(self, local_address: int, port: int = 7777,
                 name: str = "udp"):
        super().__init__(name)
        self.local_address = local_address
        self.port = port
        self.sent_count = 0
        self.received_count = 0

    def push(self, msg: Message) -> None:
        dst = msg.meta.get("dst")
        if dst is None:
            raise ValueError("UDP layer needs meta['dst'] to route")
        msg.push_header(UDPHeader(src_port=self.port, dst_port=self.port))
        msg.meta.setdefault("src", self.local_address)
        self.sent_count += 1
        self.send_down(msg)

    def pop(self, msg: Message) -> None:
        header = msg.top_header
        if not isinstance(header, UDPHeader):
            return
        if header.dst_port != self.port:
            return  # not our port; a real stack would ICMP
        msg.pop_header()
        self.received_count += 1
        self.send_up(msg)
