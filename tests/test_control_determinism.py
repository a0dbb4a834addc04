"""Determinism of the learned control plane.

The learning policy draws every variate from the counter-based
SplitMix64 streams of :mod:`repro.simnet.workloads`, indexed by
*decision* counts — never by packets, chunks or wall time.  The
consequence pinned here with a hypothesis sweep is **chunk-size
invariance**: regenerating the same scenario in different
column-chunk sizes changes nothing about the traffic or the decision
schedule, so the learned programming is bit-identical.

Plus the ground rule that makes it possible: no learning component
touches numpy's global RNG.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.gate import control_switch_factory
from repro.simnet.scenarios import default_switch_spec, run_scenario

GATE_SPEC = dict(port_rate_bps=60e6, queue_capacity=2_400,
                 n_priorities=1)


def learned_sweep(seed: int, chunk_size: int) -> dict:
    """One short learned diurnal sweep; returns its full trajectory."""
    attachments: dict = {}
    spec = default_switch_spec(**GATE_SPEC)
    run_scenario(
        "diurnal", seed=seed, n_packets=30_720, spec=spec,
        chunk_size=chunk_size,
        processor_factory=control_switch_factory(
            learned=True, attachments=attachments))
    policy = attachments["policy"]
    loop = attachments["loop"]
    return {"programming": policy.programming,
            "best": policy.best_programming,
            "episodes": policy.episodes,
            "decisions": loop.decisions,
            "applied": loop.applied}


@settings(max_examples=2, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=7))
def test_learned_programming_is_chunk_size_invariant(seed):
    """Column chunking is a memory knob, not a semantics knob.

    Chunk sizes are multiples of the admission chunk (256), so the
    admission slice boundaries — and therefore the simulated queue
    dynamics — are identical; what the test pins is that the *sweep*
    (RNG draws, episode schedule, deployments) introduces no
    chunk-shape dependence of its own.
    """
    small = learned_sweep(seed, chunk_size=1_024)
    large = learned_sweep(seed, chunk_size=65_536)
    assert small["episodes"] > 0
    assert small == large


def test_learning_never_touches_the_global_rng():
    state_before = np.random.get_state()[1].copy()
    learned_sweep(0, chunk_size=8_192)
    state_after = np.random.get_state()[1]
    assert (state_before == state_after).all()
