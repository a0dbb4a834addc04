"""Fixed cost per admission slice: microseconds and Python calls.

``run_scenario`` admits a stream in 256-row slices (the goldens pin
that size), so every cost paid once per slice — per stage, per port,
per shard — is spread over at most 256 packets.  For cache_churn on
the default switch, elephants_mice on the 2-shard fabric and
flash_crowd under the learned control loop (the perfbench learned_aqm
spec: 60 Mb/s ports, 2,400-packet single-class queues, one gated
decision per 60 ms) this benchmark reports:

* ``fixed_us_per_slice`` — the two-point fit of wall time per packet
  at admission slices of 64 and 1024 rows, ``t(s) = c + F / s``
  (best of three runs each, the switch built outside the timing);
* ``per_packet_us`` — the fit's ``c``;
* ``repro_calls_per_slice`` — Python-level calls into ``repro`` code
  per 256-row slice, counted with ``sys.setprofile`` over one run
  (building the switch excluded).  NumPy's own functions are not
  counted, so the count does not depend on the NumPy version or on
  the host's speed;
* ``tcam_searches_per_slice`` — :meth:`~repro.tcam.tcam.TCAM.search_words`
  calls (each one packed TCAM search, firewall or LPM, any shard) per
  256-row slice, counted in the same profiled run;
* ``admission_calls_per_slice`` — the ``repro`` calls made while
  :meth:`~repro.dataplane.traffic_manager.CognitiveTrafficManager.enqueue_batch`
  is on the stack (the call itself included), per 256-row slice, in
  the same profiled run: the Python cost of admission, every port and
  shard together;
* ``pcam_kernel_calls_per_slice`` — :meth:`~repro.core.pcam_cell.CellStack.responses`
  calls (each one stacked pCAM kernel call: admission, the envelope
  gate's probes and the shadow monitor) per 256-row slice, in the same
  profiled run.

The numbers go to ``benchmarks/BENCH_slice_floor.json`` (not
tracked).  Nothing here asserts a timing: the fit moves with the
host, and the call counts are the stable signals to compare across
changes.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_slice_floor.py -q -s
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.control.gate import control_switch_factory
from repro.core.pcam_cell import CellStack
from repro.fabric import fabric_scenario_factory
from repro.dataplane.traffic_manager import CognitiveTrafficManager
from repro.simnet.scenarios import (
    default_switch_spec,
    run_scenario,
    scenario_switch,
)
from repro.tcam.tcam import TCAM

RESULT_PATH = Path(__file__).parent / "BENCH_slice_floor.json"

N_PACKETS = 20_000
#: Admission slices of the two-point fit, and the pinned default.
SMALL, LARGE, DEFAULT = 64, 1024, 256
REPEATS = 3

#: Workload -> (scenario, processor factory, switch spec or None).
WORKLOADS = {
    "cache_churn": ("cache_churn", scenario_switch, None),
    "elephants_mice_fabric2": ("elephants_mice",
                               fabric_scenario_factory(2), None),
    "learned_aqm": ("flash_crowd",
                    control_switch_factory(learned=True,
                                           min_interval_s=0.06),
                    default_switch_spec(port_rate_bps=60e6,
                                        queue_capacity=2400,
                                        n_priorities=1)),
}

_REPRO_ROOT = os.path.dirname(repro.__file__) + os.sep


def _best_wall(name: str, factory, spec, admission_chunk: int) -> float:
    """Best-of-N ``run_scenario`` wall time [s] (the build excluded)."""
    return min(run_scenario(name, seed=0, n_packets=N_PACKETS,
                            admission_chunk=admission_chunk, spec=spec,
                            processor_factory=factory).wall_s
               for _ in range(REPEATS))


def _repro_calls(name: str, factory, spec) -> tuple[int, int, int, int]:
    """Python calls into ``repro`` during one run, build excluded: all
    of them, the packed TCAM searches, those made inside admission and
    the pCAM kernel calls."""
    count = searches = admission = kernels = depth = 0
    search_code = TCAM.search_words.__code__
    admit_code = CognitiveTrafficManager.enqueue_batch.__code__
    kernel_code = CellStack.responses.__code__

    def profile(frame, event, arg) -> None:
        nonlocal count, searches, admission, kernels, depth
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(_REPRO_ROOT):
            count += 1
            searches += code is search_code
            kernels += code is kernel_code
            depth += code is admit_code
            admission += depth > 0
        elif event == "return" and code is admit_code:
            depth -= 1

    def unprofiled_factory(spec, seed: int):
        sys.setprofile(None)
        try:
            return factory(spec, seed)
        finally:
            sys.setprofile(profile)

    sys.setprofile(profile)
    try:
        run_scenario(name, seed=0, n_packets=N_PACKETS,
                     admission_chunk=DEFAULT, spec=spec,
                     processor_factory=unprofiled_factory)
    finally:
        sys.setprofile(None)
    return count, searches, admission, kernels


def _measure(name: str, factory, spec) -> dict:
    small = _best_wall(name, factory, spec, SMALL) / N_PACKETS
    large = _best_wall(name, factory, spec, LARGE) / N_PACKETS
    fixed = (small - large) / (1.0 / SMALL - 1.0 / LARGE)
    default = _best_wall(name, factory, spec, DEFAULT)
    slices = math.ceil(N_PACKETS / DEFAULT)
    calls, searches, admission, kernels = _repro_calls(name, factory,
                                                       spec)
    return {
        "scenario": name,
        "n_packets": N_PACKETS,
        "fixed_us_per_slice": fixed * 1e6,
        "per_packet_us": (large - fixed / LARGE) * 1e6,
        "pps_at_default_slice": N_PACKETS / default,
        "repro_calls_per_slice": calls / slices,
        "tcam_searches_per_slice": searches / slices,
        "admission_calls_per_slice": admission / slices,
        "pcam_kernel_calls_per_slice": kernels / slices,
    }


@pytest.fixture(scope="module")
def floor() -> dict:
    measured = {workload: _measure(name, factory, spec)
                for workload, (name, factory, spec) in WORKLOADS.items()}
    document = {
        "admission_slices": {"small": SMALL, "large": LARGE,
                             "default": DEFAULT},
        "host": {"python": platform.python_version(),
                 "numpy": np.__version__,
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "workloads": measured,
    }
    RESULT_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"\n=== fixed cost per admission slice ({N_PACKETS} packets) ===")
    print(f"{'workload':>24}{'fixed us/slice':>16}{'us/pkt':>10}"
          f"{'pps@256':>12}{'calls/slice':>14}{'tcam/slice':>12}"
          f"{'admit/slice':>13}{'pcam/slice':>12}")
    for workload, row in measured.items():
        print(f"{workload:>24}{row['fixed_us_per_slice']:>16.1f}"
              f"{row['per_packet_us']:>10.2f}"
              f"{row['pps_at_default_slice']:>12,.0f}"
              f"{row['repro_calls_per_slice']:>14.1f}"
              f"{row['tcam_searches_per_slice']:>12.2f}"
              f"{row['admission_calls_per_slice']:>13.1f}"
              f"{row['pcam_kernel_calls_per_slice']:>12.2f}")
    return measured


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_slice_floor_reported(floor, workload):
    row = floor[workload]
    assert row["repro_calls_per_slice"] > row["admission_calls_per_slice"] \
        > 0
    assert math.isfinite(row["fixed_us_per_slice"])
    assert json.loads(RESULT_PATH.read_text())["workloads"][workload] \
        == row
