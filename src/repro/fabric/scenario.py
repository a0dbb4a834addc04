"""Fabric processor factories for the scenario engine.

:func:`~repro.simnet.scenarios.run_scenario` accepts a
``processor_factory(spec, seed)`` hook; :func:`fabric_scenario_factory`
builds one that stands a :class:`~repro.fabric.fabric.SwitchFabric`
where the serial engine would have stood a single switch.  Each shard
is the engine's own :func:`~repro.simnet.scenarios.scenario_switch`,
so a one-shard fabric is behaviourally the engine's switch, and an
N-shard fabric differs only by flow partitioning.
"""

from __future__ import annotations

from repro.fabric.fabric import SwitchFabric
from repro.fabric.rss import ToeplitzRSS
from repro.simnet.scenarios import scenario_switch

__all__ = ["build_fabric", "fabric_scenario_factory"]


def build_fabric(spec, seed: int, n_shards: int, *,
                 rss: ToeplitzRSS | None = None) -> SwitchFabric:
    """A fabric of scenario switches for one (spec, seed).

    Every shard is :func:`~repro.simnet.scenarios.scenario_switch`'s
    product for the same (spec, seed).
    """
    return SwitchFabric(lambda: scenario_switch(spec, seed), n_shards,
                        rss=rss)


def fabric_scenario_factory(n_shards: int):
    """A ``processor_factory`` for ``run_scenario``.

    Usage::

        run_scenario("cache_churn",
                     processor_factory=fabric_scenario_factory(4))
    """
    def factory(spec, seed: int) -> SwitchFabric:
        return build_fabric(spec, seed, n_shards)

    return factory
