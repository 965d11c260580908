"""UDP traffic sources.

Used by the Table 1 / Fig. 4 silent-loss experiment, where "the two
senders transmit UDP packets as fast as possible" — i.e. saturated
sources that keep the MAC queue non-empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["Datagram", "UdpSource"]


@dataclass(frozen=True)
class Datagram:
    """One UDP datagram."""

    flow: int
    seq: int
    size_bytes: int

    @property
    def size_bits(self) -> int:
        return 8 * self.size_bytes


class UdpSource:
    """A saturated datagram source.

    Args:
        flow: flow identifier.
        transmit: callback accepting each datagram; must return True
            if the packet was accepted (queue not full).
        size_bytes: datagram payload size.

    A new datagram is offered whenever :meth:`pump` is called, which
    the MAC does each time its queue drains.
    """

    def __init__(self, flow: int, transmit: Callable[[Datagram], bool],
                 size_bytes: int = 1400):
        if size_bytes <= 0:
            raise ValueError("datagram size must be positive")
        self.flow = flow
        self._transmit = transmit
        self.size_bytes = size_bytes
        self.sent = 0

    def _offer(self) -> bool:
        accepted = self._transmit(Datagram(flow=self.flow, seq=self.sent,
                                           size_bytes=self.size_bytes))
        if accepted:
            self.sent += 1
        return accepted

    def pump(self, target_backlog: int = 4) -> None:
        """Offer datagrams until the stack below stops accepting.

        The MAC calls this whenever its queue has room, keeping
        ``target_backlog`` frames queued.
        """
        for _ in range(target_backlog):
            if not self._offer():
                return
