"""Per-port traffic accounting for the simulated segment.

INDISS's adaptation manager (paper §4.2, Figure 6) switches a passively
deployed instance to active advertisement only "when the network traffic is
low"; this module provides the utilization measurements that decision needs,
plus the per-port counters used by tests and benchmark reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(slots=True)
class PortCounters:
    """Cumulative counters for one UDP/TCP port."""

    messages: int = 0
    bytes: int = 0
    multicast_messages: int = 0
    last_seen_us: int = -1


class TrafficMonitor:
    """Counts every message the network delivers or attempts to deliver.

    The monitor keeps cumulative per-port counters forever and a sliding
    window of recent ``(time_us, size)`` samples for utilization queries.
    ``window_us`` bounds how far back :meth:`utilization` can look.  Two
    samples are stored per delivered frame (network-wide plus
    per-segment); a tuple of two ints is cheap to build and drops out of
    the garbage collector's tracking.
    """

    def __init__(self, bandwidth_bps: int | None, window_us: int = 5_000_000):
        self._bandwidth_bps = bandwidth_bps
        self._window_us = window_us
        self._per_port: dict[int, PortCounters] = {}
        self._recent: deque[tuple[int, int]] = deque()
        self.total_messages = 0
        self.total_bytes = 0

    def record(self, time_us: int, port: int, size: int, transport: str, multicast: bool) -> None:
        counters = self._per_port.get(port)
        if counters is None:
            counters = self._per_port[port] = PortCounters()
        counters.messages += 1
        counters.bytes += size
        counters.last_seen_us = time_us
        if multicast:
            counters.multicast_messages += 1
        self.total_messages += 1
        self.total_bytes += size
        recent = self._recent
        recent.append((time_us, size))
        if recent[0][0] < time_us - self._window_us:
            self._evict(time_us)

    def _evict(self, now_us: int) -> None:
        horizon = now_us - self._window_us
        while self._recent and self._recent[0][0] < horizon:
            self._recent.popleft()

    def port(self, port: int) -> PortCounters:
        """Counters for ``port`` (zeros if never seen)."""
        return self._per_port.get(port, PortCounters())

    def ports_seen(self) -> list[int]:
        return sorted(p for p, c in self._per_port.items() if c.messages)

    def bytes_in_window(self, now_us: int, window_us: int) -> int:
        """Bytes observed during the last ``window_us`` of virtual time."""
        if window_us > self._window_us:
            raise ValueError(
                f"window {window_us} exceeds monitor retention {self._window_us}"
            )
        horizon = now_us - window_us
        return sum(size for time_us, size in self._recent if time_us >= horizon)

    def utilization(self, now_us: int, window_us: int = 1_000_000) -> float:
        """Fraction of segment bandwidth consumed over the trailing window.

        Returns 0.0 when the model has infinite bandwidth.
        """
        if not self._bandwidth_bps:
            return 0.0
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        bits = self.bytes_in_window(now_us, min(window_us, self._window_us)) * 8
        capacity_bits = self._bandwidth_bps * window_us / 1_000_000
        return min(bits / capacity_bits, 1.0) if capacity_bits else 0.0


__all__ = ["TrafficMonitor", "PortCounters"]
