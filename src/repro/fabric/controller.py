"""Transactional programming of all fabric shards.

An NMS reprogramming a sharded switch must never let traffic observe
half a rule update: a chunk classified while shard 0 has the new
route and shard 1 still has the old one could split a flow's verdicts
across configurations.  :class:`FabricController` closes that window
with a two-phase protocol over its own list of staged ops:

1. **prepare** — every staged op's name and arguments are checked
   (port range, prefix parse, retarget band), and an op on the port
   AQMs is checked against every shard's AQMs, before any shard
   changes.  One refused op refuses the whole transaction: every
   shard and the generation stay as they were.
2. **apply** — under the fabric's chunk-dispatch lock, the routes
   and rules are written once to the tables the shards share, every
   shard applies the other ops and drops its flow cache, and the
   fabric generation increments once.

Because chunk dispatch holds the same lock while a chunk runs on its
shards, a chunk sees either the pre-commit configuration on *all*
shards or the post-commit configuration on *all* shards — never a
mix.  The generation number names the configuration a chunk ran
under.
"""

from __future__ import annotations

from repro.fabric.shards import check_op

__all__ = ["FabricController"]


class FabricController:
    """Stages programming ops and commits them atomically."""

    def __init__(self, fabric) -> None:
        self._fabric = fabric
        self._pending: list[tuple[str, tuple]] = []

    # ------------------------------------------------------------------
    # Staging (buffered; invisible until commit)
    # ------------------------------------------------------------------
    def stage(self, name: str, *args) -> "FabricController":
        """Queue one op for the next commit (chainable)."""
        self._pending.append((name, args))
        return self

    def add_route(self, prefix: str, port: int) -> "FabricController":
        return self.stage("add_route", prefix, port)

    def add_firewall_rule(self, rule) -> "FabricController":
        return self.stage("add_firewall_rule", rule)

    def invalidate_flow_caches(self) -> "FabricController":
        return self.stage("invalidate_flow_cache")

    def retarget(self, target_delay_s: float,
                 max_deviation_s: float | None = None
                 ) -> "FabricController":
        """Re-aim every shard's AQM pipelines at a new delay target."""
        if max_deviation_s is None:
            return self.stage("retarget", target_delay_s)
        return self.stage("retarget", target_delay_s, max_deviation_s)

    def reprogram_intended(self) -> "FabricController":
        """Write every AQM's intended conductances back (drift repair)."""
        return self.stage("reprogram_intended")

    @property
    def staged(self) -> tuple[tuple[str, tuple], ...]:
        """Ops staged for the next commit, not yet on any shard."""
        return tuple(self._pending)

    # ------------------------------------------------------------------
    # Two-phase commit
    # ------------------------------------------------------------------
    def commit(self) -> int:
        """Check every staged op, then apply them to all shards at once.

        Returns the new fabric generation.  A commit with nothing
        staged still advances the generation — useful as a barrier.
        A refused commit raises the refusing op's error, discards the
        staged ops and leaves every shard and the generation
        unchanged.
        """
        ops, self._pending = self._pending, []
        for op in ops:
            check_op(op, self._fabric.shards)
        return self._fabric._apply_all(ops)

    def abort(self) -> int:
        """Discard the staged ops; the number discarded."""
        dropped, self._pending = len(self._pending), []
        return dropped
