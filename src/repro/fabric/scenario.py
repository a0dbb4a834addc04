"""Fabric processor factories for the scenario engine.

:func:`~repro.simnet.scenarios.run_scenario` accepts a
``processor_factory(spec, seed)`` hook; :func:`fabric_scenario_factory`
builds one that stands a :class:`~repro.fabric.fabric.SwitchFabric`
where the serial engine would have stood a single switch.  Each shard
replicates the engine's default construction — per-port PCAM AQMs
seeded by ``(seed, port, 0xA11A)``, graceful-degradation wrapping,
AQM ledgers folded into the shard's pipeline ledger — so a one-shard
fabric is behaviourally the engine's own switch, and an N-shard
fabric differs only by flow partitioning.
"""

from __future__ import annotations

import numpy as np

from repro.fabric.fabric import SwitchFabric
from repro.fabric.rss import ToeplitzRSS

__all__ = ["build_fabric", "fabric_scenario_factory"]


def build_fabric(spec, seed: int, n_shards: int, *,
                 mode: str = "in_process",
                 rss: ToeplitzRSS | None = None) -> SwitchFabric:
    """A fabric of scenario-style switches for one (spec, seed).

    The shard factory mirrors ``run_scenario``'s default switch
    construction.  It is a closure (fresh port iterator per shard, so
    every shard gets the same per-port AQM seeds) and runs inside the
    forked worker in multiprocessing mode — nothing here needs to
    pickle.
    """
    def shard_factory():
        from repro.dataplane.switch import build_switch
        from repro.netfunc.aqm.pcam_aqm import PCAMAQM
        from repro.robustness.degradation import DegradingAQM

        built_ports = iter(range(spec.n_ports))

        def aqm_factory():
            port = next(built_ports)
            analog = PCAMAQM(
                rng=np.random.default_rng((seed, port, 0xA11A)))
            if spec.graceful_degradation:
                return DegradingAQM(analog)
            return analog

        processor = build_switch(spec, aqm_factory=aqm_factory)
        manager = processor.traffic_manager
        for port in range(spec.n_ports):
            aqm = manager.aqm(port)
            getattr(aqm, "analog", aqm).ledger = processor.ledger
        return processor

    return SwitchFabric(shard_factory, n_shards, mode=mode, rss=rss)


def fabric_scenario_factory(n_shards: int, *, mode: str = "in_process"):
    """A ``processor_factory`` for ``run_scenario``.

    Usage::

        run_scenario("cache_churn",
                     processor_factory=fabric_scenario_factory(4))
    """
    def factory(spec, seed: int) -> SwitchFabric:
        return build_fabric(spec, seed, n_shards, mode=mode)

    return factory
