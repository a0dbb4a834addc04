"""Shared-buffer management across egress queues.

The paper's AQM motivation cites ABM ("Active Buffer Management in
Datacenters", Addanki et al. [1]): switch buffers are *shared*, and
per-queue limits must adapt to the global occupancy.  This module
implements the two classic policies over a common buffer pool:

* **Dynamic Thresholds (DT)** — a queue may grow to
  ``alpha * remaining_buffer``;
* **ABM-style scaling** — DT additionally scaled per priority class
  and divided by the number of congested queues of that class, which
  is what preserves both burst headroom and fairness.

The manager only answers admission questions; the queues themselves
live wherever the caller keeps them (a
:class:`~repro.dataplane.queues.PortQueue`'s class queues, whether a
switch port or the event-driven simulator's bottleneck).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.packet import Packet

__all__ = ["BufferPool", "DynamicThresholdPolicy", "ABMPolicy"]


@dataclass
class _QueueShare:
    """Book-keeping for one queue drawing from the pool."""

    occupancy_bytes: int = 0
    priority: int = 0


class BufferPool:
    """A shared byte pool with per-queue occupancy accounting."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < 1:
            raise ValueError(
                f"capacity must be positive: {capacity_bytes!r}")
        self.capacity_bytes = capacity_bytes
        self._queues: dict[str, _QueueShare] = {}

    def register(self, queue_id: str, priority: int = 0) -> None:
        """Add a queue (with its priority class) to the pool."""
        if queue_id in self._queues:
            raise ValueError(f"queue {queue_id!r} already registered")
        self._queues[queue_id] = _QueueShare(priority=priority)

    @property
    def used_bytes(self) -> int:
        """Bytes currently held across all queues."""
        return sum(share.occupancy_bytes
                   for share in self._queues.values())

    @property
    def free_bytes(self) -> int:
        """Unused pool capacity [bytes]."""
        return self.capacity_bytes - self.used_bytes

    def occupancy(self, queue_id: str) -> int:
        """Bytes currently held by one queue."""
        return self._share(queue_id).occupancy_bytes

    def priority_of(self, queue_id: str) -> int:
        """The priority class a queue registered with."""
        return self._share(queue_id).priority

    def congested_queues(self, priority: int,
                         threshold_bytes: int = 1) -> int:
        """Number of non-empty queues of a priority class."""
        return sum(
            1 for share in self._queues.values()
            if share.priority == priority
            and share.occupancy_bytes >= threshold_bytes)

    def charge(self, queue_id: str, size_bytes: int) -> None:
        """Account an admitted packet."""
        if size_bytes < 1:
            raise ValueError(f"size must be positive: {size_bytes!r}")
        self._share(queue_id).occupancy_bytes += size_bytes

    def release(self, queue_id: str, size_bytes: int) -> None:
        """Account a departed packet."""
        share = self._share(queue_id)
        if size_bytes > share.occupancy_bytes:
            raise ValueError(
                f"releasing {size_bytes} B from queue {queue_id!r} "
                f"holding only {share.occupancy_bytes} B")
        share.occupancy_bytes -= size_bytes

    def _share(self, queue_id: str) -> _QueueShare:
        try:
            return self._queues[queue_id]
        except KeyError:
            raise KeyError(
                f"unknown queue {queue_id!r}; registered: "
                f"{sorted(self._queues)}") from None


class DynamicThresholdPolicy:
    """Classic DT admission: limit = alpha * remaining buffer."""

    def __init__(self, pool: BufferPool, alpha: float = 1.0) -> None:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive: {alpha!r}")
        self.pool = pool
        self.alpha = alpha

    def threshold_bytes(self, queue_id: str) -> float:
        """Current admission limit for one queue [bytes]."""
        return self.alpha * self.pool.free_bytes

    def admits(self, queue_id: str, packet: Packet) -> bool:
        """Admission test; charges the pool when admitted."""
        if packet.size_bytes > self.pool.free_bytes:
            return False
        if (self.pool.occupancy(queue_id) + packet.size_bytes
                > self.threshold_bytes(queue_id)):
            return False
        self.pool.charge(queue_id, packet.size_bytes)
        return True


class ABMPolicy(DynamicThresholdPolicy):
    """ABM: DT scaled per priority and per congested-queue count.

    ``threshold = alpha_p * free / n_congested(p)`` where ``alpha_p``
    decreases for lower-priority classes — high classes keep burst
    headroom, and the division by the congested count keeps the class
    fair when many of its queues back up.
    """

    def __init__(self, pool: BufferPool,
                 alphas_by_priority: dict[int, float] | None = None
                 ) -> None:
        super().__init__(pool, alpha=1.0)
        self.alphas_by_priority = (
            alphas_by_priority if alphas_by_priority is not None
            else {0: 2.0, 1: 1.0, 2: 0.5})
        if any(alpha <= 0 for alpha in self.alphas_by_priority.values()):
            raise ValueError("all alphas must be positive")

    def _alpha_for(self, priority: int) -> float:
        if priority in self.alphas_by_priority:
            return self.alphas_by_priority[priority]
        return min(self.alphas_by_priority.values())

    def threshold_bytes(self, queue_id: str) -> float:
        """Current admission limit for one queue [bytes]."""
        priority = self.pool.priority_of(queue_id)
        congested = max(1, self.pool.congested_queues(priority))
        return (self._alpha_for(priority) * self.pool.free_bytes
                / congested)
