"""Event-driven simulator golden: the bottleneck queue, byte for byte.

``tests/golden/des_reference.json`` pins every event-time rig that
stands on :class:`~repro.simnet.queue_sim.BottleneckQueue`:

* ``figure8_series()`` — the binned delay arrays and drop counts;
* the Poisson dumbbell with occupancy sampling under tail drop, RED,
  PIE, CoDel and the pCAM AQM — departure times, sojourns, drop
  times, sample series and the queue's admission counters;
* the two-bottleneck path under tail drop, CoDel and the pCAM AQM;
* the AIMD rig of ``benchmarks/test_ablation_responsive.py`` under
  tail drop, the pCAM AQM and the pCAM AQM with ECN.

Float series are pinned as SHA-256 digests of their float64 bytes,
so a single ulp of drift in one event time shows up.  Every random
AQM gets a seeded generator (RED and PIE default to an unseeded one).

To re-capture after an *intentional* behaviour change, run
``python -m tests.test_des_golden`` with ``PYTHONPATH=src`` and say
why in the commit.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.figures import figure8_series
from repro.netfunc.aqm import (
    PCAMAQM,
    CoDelAqm,
    PIEAqm,
    REDAqm,
    TailDropAQM,
)
from repro.simnet.engine import Simulator
from repro.simnet.multihop import MultiBottleneckExperiment
from repro.simnet.queue_sim import BottleneckQueue
from repro.simnet.responsive import AIMDFlowGenerator, FeedbackRouter
from repro.simnet.topology import DumbbellExperiment

GOLDEN_PATH = Path(__file__).parent / "golden" / "des_reference.json"

DUMBBELL_AQMS = {
    "tail-drop": TailDropAQM,
    "RED": lambda: REDAqm(rng=np.random.default_rng(11)),
    "PIE": lambda: PIEAqm(rng=np.random.default_rng(12)),
    "CoDel": CoDelAqm,
    "pCAM": lambda: PCAMAQM(rng=np.random.default_rng(13)),
}
MULTIHOP_AQMS = ("tail-drop", "CoDel", "pCAM")
AIMD_CASES = {
    "tail-drop": (lambda: TailDropAQM(), False),
    "pCAM": (lambda: PCAMAQM(rng=np.random.default_rng(9)), False),
    "pCAM+ECN": (lambda: PCAMAQM(ecn_enabled=True,
                                 rng=np.random.default_rng(9)), True),
}


def digest(values) -> str:
    """SHA-256 of a series' float64 bytes."""
    return hashlib.sha256(
        np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def recorder_record(recorder) -> dict:
    return {
        "delivered": recorder.delivered,
        "dropped": recorder.dropped,
        "departure_times": digest(recorder.departure_times),
        "sojourn_times": digest(recorder.sojourn_times),
        "drop_times": digest(recorder.drop_times),
        "sample_times": digest(recorder.sample_times),
        "queue_lengths": digest(recorder.queue_lengths),
        "queue_bytes": digest(recorder.queue_bytes),
    }


def queue_record(queue) -> dict:
    return {"admitted": queue.admitted, "aqm_drops": queue.aqm_drops,
            "overflow_drops": queue.overflow_drops,
            **recorder_record(queue.recorder)}


def capture_figure8() -> dict:
    series = figure8_series()
    return {"time_s": digest(series.time_s),
            "no_aqm_delay_ms": digest(series.no_aqm_delay_ms),
            "pcam_delay_ms": digest(series.pcam_delay_ms),
            "no_aqm_drops": series.no_aqm_drops,
            "pcam_drops": series.pcam_drops}


def capture_dumbbell(name: str) -> dict:
    experiment = DumbbellExperiment(
        n_flows=6, load=1.2, service_rate_bps=40e6, capacity_packets=600,
        duration_s=2.0, priorities=(0, 1, 0, 1, 0, 2), seed=5,
        sample_interval_s=0.01)
    return queue_record(experiment.run(DUMBBELL_AQMS[name]()).queue)


def capture_multihop(name: str) -> dict:
    result = MultiBottleneckExperiment(capacity_packets=300,
                                       duration_s=2.0).run(
        DUMBBELL_AQMS[name])
    return {"delivered": result.delivered, "dropped": result.dropped,
            "end_to_end": digest(result.end_to_end_delays_s),
            "hops": [queue_record(queue) for queue in result.queues]}


def capture_aimd(name: str) -> dict:
    make_aqm, ecn_capable = AIMD_CASES[name]
    sim = Simulator()
    router = FeedbackRouter()
    queue = BottleneckQueue(sim, service_rate_bps=20e6,
                            capacity_packets=800, aqm=make_aqm(),
                            delivery_listener=router.on_delivery,
                            drop_listener=router.on_drop)
    senders = [AIMDFlowGenerator(router, rtt_s=0.04, flow_id=index,
                                 ecn_capable=ecn_capable,
                                 rng=np.random.default_rng(index))
               for index in range(4)]
    for sender in senders:
        sender.attach(sim, queue.enqueue)
    sim.run_until(4.0)
    return {**queue_record(queue),
            "ecn_marks": getattr(queue.aqm, "ecn_marks", 0),
            "cwnd": digest([sender.cwnd for sender in senders]),
            "losses": [sender.losses for sender in senders]}


def capture() -> dict:
    """The whole golden document, freshly computed (deterministic)."""
    return {
        "figure8": capture_figure8(),
        "dumbbell": {name: capture_dumbbell(name)
                     for name in DUMBBELL_AQMS},
        "multihop": {name: capture_multihop(name)
                     for name in MULTIHOP_AQMS},
        "aimd": {name: capture_aimd(name) for name in AIMD_CASES},
    }


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_figure8_series_pinned(reference):
    assert capture_figure8() == reference["figure8"]


@pytest.mark.parametrize("name", list(DUMBBELL_AQMS))
def test_dumbbell_pinned(reference, name):
    assert capture_dumbbell(name) == reference["dumbbell"][name]


@pytest.mark.parametrize("name", MULTIHOP_AQMS)
def test_multihop_pinned(reference, name):
    assert capture_multihop(name) == reference["multihop"][name]


@pytest.mark.parametrize("name", list(AIMD_CASES))
def test_aimd_pinned(reference, name):
    assert capture_aimd(name) == reference["aimd"][name]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=1,
                                      sort_keys=True) + "\n")
