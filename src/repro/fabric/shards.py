"""One fabric shard and the programming ops the fabric commits to it.

A *shard* is a ``build_switch`` product whose digital tables are the
fabric's: it classifies against the one firewall and IP lookup every
shard shares, and keeps its own flow cache, traffic manager (queues
and AQMs), energy ledger and telemetry domain.  :class:`Shard` only
names it (``fabric.shards[i].processor``); the fabric calls the
processor itself:

* ``walk`` — one sub-chunk of a
  :class:`~repro.dataplane.fastpath.PacketBatch` as a single admission
  chunk, its rows at their absolute positions in the fabric's results,
  run with the other shards' walks of the same chunk so that their
  digital MATs search the shared tables once (the fabric chunks at
  serial boundaries *before* steering, which is what keeps dedup sets,
  cache sequences and energy multisets identical to the serial walk);
* :func:`apply_op` — one committed programming op;
* ``traffic_manager.dequeue`` — the per-packet egress reference, used
  while a port's AQM may drop at the head; otherwise the fabric drains
  every port from the shards' traffic managers in one pass per slice.

A commit checks every op with :func:`check_op` before any shard
applies one, so an op that would fail is refused with every shard
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netfunc.firewall import Firewall
from repro.netfunc.lookup import IPLookup

__all__ = ["FABRIC_OPS", "Shard", "TABLE_OPS", "apply_op", "check_op"]

#: Programming operations the fabric controller may stage, each a
#: ``(name, args)`` pair.  A table op (:data:`TABLE_OPS`) is applied
#: once, to the tables every shard shares, and drops every shard's
#: flow cache; the others are applied on every shard.  Either way one
#: committed transaction leaves all shards in the same configuration.
FABRIC_OPS = frozenset({
    "add_route",
    "add_firewall_rule",
    "invalidate_flow_cache",
    "retarget",
    "reprogram_intended",
})
#: The ops that write the shared digital tables.
TABLE_OPS = frozenset({"add_route", "add_firewall_rule"})


def _analog(aqm):
    """The analog AQM inside a possibly-degradation-wrapped table."""
    return getattr(aqm, "analog", aqm)


def _check_route(n_ports: int, prefix: str, port: int) -> None:
    if not 0 <= port < n_ports:
        raise IndexError(f"port {port} out of range")
    IPLookup().add_route(prefix, f"port{port}")


def _check_retarget(target_delay_s: float,
                    max_deviation_s: float | None = None) -> None:
    if not target_delay_s > 0:
        raise ValueError(f"target must be positive: {target_delay_s!r}")
    if max_deviation_s is not None \
            and not 0 < max_deviation_s < target_delay_s:
        raise ValueError(f"deviation must lie in (0, target): "
                         f"{max_deviation_s!r}")


def check_op(op: tuple[str, tuple], shards: list["Shard"]) -> None:
    """Phase 1 of a commit: raise if ``op`` would fail on a shard.

    Routes and firewall rules are installed on throwaway tables, so
    their own parsers judge them.  An op on the port AQMs
    (``retarget``, ``reprogram_intended``) is checked against every
    shard's AQMs, and refused with a :class:`TypeError` if one of them
    lacks it.  Nothing here changes a shard.
    """
    name, args = op
    if name == "add_route":
        _check_route(shards[0].processor.traffic_manager.n_ports, *args)
    elif name == "add_firewall_rule":
        Firewall().add_rule(*args)
    elif name == "retarget":
        _check_retarget(*args)
    if name in ("retarget", "reprogram_intended"):
        for index, shard in enumerate(shards):
            manager = shard.processor.traffic_manager
            for port in range(manager.n_ports):
                analog = _analog(manager.aqm(port))
                if not callable(getattr(analog, name, None)):
                    raise TypeError(
                        f"shard {index} port {port}: "
                        f"{type(analog).__name__} has no {name}()")
    elif name not in FABRIC_OPS:
        raise ValueError(f"unknown fabric op {name!r}; "
                         f"known: {sorted(FABRIC_OPS)}")


def apply_op(processor, op: tuple[str, tuple]) -> None:
    """Apply one committed programming op to a shard's processor."""
    name, args = op
    manager = processor.traffic_manager
    if name == "add_route":
        processor.add_route(*args)
    elif name == "add_firewall_rule":
        processor.add_firewall_rule(*args)
    elif name == "invalidate_flow_cache":
        processor.invalidate_flow_cache()
    elif name == "retarget":
        for port in range(manager.n_ports):
            _analog(manager.aqm(port)).retarget(*args)
    elif name == "reprogram_intended":
        for port in range(manager.n_ports):
            _analog(manager.aqm(port)).reprogram_intended(*args)


@dataclass(frozen=True)
class Shard:
    """One switch behind the fabric, on the fabric's shared tables
    (perfbench's layer view reads ``shard.processor``)."""

    processor: object
