"""Learned-sweep golden: the SPSA loop on a seed-0 diurnal run.

``tests/golden/control_learned.json`` pins the end state of the
learned control loop that ``control_switch_factory(learned=True)``
attaches to the scenario switch: the same seed-0, 30,720-packet
diurnal sweep on the control-gate switch spec (60 Mb/s ports,
2,400-packet single-priority queues, one decision per 60 ms) that
``tests/test_control_determinism.py`` runs.  It records the policy's
programmings, best score, episode/iteration/blocked counts and gain,
the loop's decision counts and the envelope gate's counters.  Every
float is compared exactly, so any change to a policy constant, the
sensor's delay signal or the gate's probing shows up here.

Regenerate (only after an intentional behaviour change) with:

    PYTHONPATH=src python tests/test_control_learned_golden.py
"""

import json
from pathlib import Path

from repro.control.gate import control_switch_factory
from repro.simnet.scenarios import default_switch_spec, run_scenario

GOLDEN_PATH = Path(__file__).parent / "golden" / "control_learned.json"


def learned_state() -> dict:
    """The policy, loop and gate state after the seed-0 sweep."""
    attachments: dict = {}
    spec = default_switch_spec(port_rate_bps=60e6, queue_capacity=2_400,
                               n_priorities=1)
    run_scenario(
        "diurnal", seed=0, n_packets=30_720, spec=spec,
        processor_factory=control_switch_factory(
            learned=True, attachments=attachments))
    policy = attachments["policy"]
    loop = attachments["loop"]
    gate = attachments["gate"]
    return json.loads(json.dumps({
        "policy": {"programming": list(policy.programming),
                   "best_programming": list(policy.best_programming),
                   "best_score": policy.best_score,
                   "episodes": policy.episodes,
                   "iteration": policy.iteration,
                   "blocked": policy.blocked,
                   "gain": policy.gain},
        "loop": {"decisions": loop.decisions,
                 "applied": loop.applied,
                 "rejected": loop.rejected},
        "gate": {"checks": gate.checks,
                 "rejections": gate.rejections,
                 "violations": gate.violations},
    }))


def test_learned_sweep_matches_the_golden():
    reference = json.loads(GOLDEN_PATH.read_text())
    assert learned_state() == reference


def test_golden_sweep_actually_learns():
    # Guard the golden itself: the pinned run closed SPSA iterations
    # and committed candidates, so it exercises the constants.
    reference = json.loads(GOLDEN_PATH.read_text())
    assert reference["policy"]["iteration"] > 0
    assert reference["loop"]["applied"] > 0
    assert reference["gate"]["checks"] > 0


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(learned_state(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
