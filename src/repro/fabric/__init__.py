"""Sharded multi-switch fabric: RSS steering + transactional control.

The fabric is the repo's horizontal-scale layer: N cognitive switches
sharing one set of digital tables (each with its own chunk walk, flow
cache, queues and AQMs, energy ledger and telemetry domain) behind a
symmetric Toeplitz RSS front end, with a two-phase controller that
reprograms all shards atomically.  Every shard runs in the caller's
process.  See DESIGN.md §14.
"""

from repro.dataplane.results import VERDICTS
from repro.fabric.controller import FabricController
from repro.fabric.fabric import SwitchFabric
from repro.fabric.rss import SYMMETRIC_RSS_KEY, ToeplitzRSS
from repro.fabric.scenario import build_fabric, fabric_scenario_factory
from repro.fabric.shards import FABRIC_OPS, Shard

__all__ = [
    "FABRIC_OPS",
    "FabricController",
    "SYMMETRIC_RSS_KEY",
    "Shard",
    "SwitchFabric",
    "ToeplitzRSS",
    "VERDICTS",
    "build_fabric",
    "fabric_scenario_factory",
]
