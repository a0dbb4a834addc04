"""Golden equivalence: the staged runtime vs the pre-refactor paths.

``tests/golden/runtime_reference.json`` was captured from the
pre-refactor pipeline (the fused scalar/batched implementation,
verified byte-identical across processes before being committed).
These tests replay the exact same traffic through the unified
runtime and require verdicts, ports, verdict counters, telemetry
tables/events/gauges and energy-ledger accounts to match the
reference — across chunk sizes, with the flow cache on and off, and
under seeded fault injection.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.dataplane.pipeline import AnalogPacketProcessor
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.netfunc.firewall import Action, FirewallRule
from repro.packet import Packet
from repro.robustness import FaultInjector, StuckAtFault

GOLDEN_PATH = Path(__file__).parent / "golden" / \
    "runtime_reference.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: Same pools as the capture script that produced the reference.
DST_POOL = [
    "10.1.2.3", "10.1.2.4", "10.200.0.1",
    "192.168.7.7", "192.168.9.1",
    "172.16.0.5", "172.16.3.3",
    "203.0.113.9", "203.0.113.10",
    "198.51.100.1", "198.51.100.2",
    None, None,
]
SRC_POOL = ["1.2.3.4", "5.6.7.8", "9.10.11.12"]

CONFIGS = {
    "scalar_cached": ("scalar", 1, 4096, None),
    "batch_c1": ("batch", 1, 4096, None),
    "batch_c7": ("batch", 7, 4096, None),
    "batch_c64": ("batch", 64, 4096, None),
    "batch_c64_nocache": ("batch", 64, 0, None),
    "batch_c64_faulted": ("batch", 64, 4096, 99),
    "scalar_faulted": ("scalar", 1, 4096, 99),
}


def build_processor(flow_cache_size, fault_seed):
    processor = AnalogPacketProcessor(
        n_ports=3,
        aqm_factory=lambda: PCAMAQM(rng=np.random.default_rng(5)),
        flow_cache_size=flow_cache_size)
    processor.add_firewall_rule(FirewallRule(
        action=Action.DENY, dst_prefix="203.0.113.0/24"))
    processor.add_route("10.0.0.0/8", 0)
    processor.add_route("192.168.0.0/16", 1)
    processor.add_route("172.16.0.0/12", 2)
    if fault_seed is not None:
        injector = FaultInjector(StuckAtFault(state="hrs"),
                                 cell_fraction=1.0,
                                 rng=np.random.default_rng(fault_seed))
        for port in range(processor.traffic_manager.n_ports):
            injector.inject_aqm(processor.traffic_manager.aqm(port))
    return processor


def make_traffic(n=240, seed=17):
    rng = np.random.default_rng(seed)
    packets = []
    for _ in range(n):
        fields = {"src_ip": SRC_POOL[int(rng.integers(len(SRC_POOL)))],
                  "src_port": int(rng.integers(1024, 1028)),
                  "dst_port": int(rng.integers(80, 83)),
                  "protocol": int(rng.choice([6, 17]))}
        dst = DST_POOL[int(rng.integers(len(DST_POOL)))]
        if dst is not None:
            fields["dst_ip"] = dst
        packets.append(Packet(size_bytes=int(rng.integers(64, 1500)),
                              priority=int(rng.random() < 0.3),
                              fields=fields))
    return packets


def observe(mode, chunk_size, flow_cache_size, fault_seed):
    processor = build_processor(flow_cache_size, fault_seed)
    packets = make_traffic()
    if mode == "scalar":
        results = [processor.process(p, now=0.5) for p in packets]
    else:
        results = processor.process_batch(packets, now=0.5,
                                          chunk_size=chunk_size)
    snapshot = processor.telemetry.snapshot()
    return {
        "verdicts": [r.verdict.value for r in results],
        "ports": [r.port for r in results],
        "verdict_counts": {v.value: c
                           for v, c in processor.verdict_counts.items()},
        "tables": snapshot["tables"],
        "events": snapshot["events"],
        "gauges": snapshot["gauges"],
        "energy_breakdown": {k: round(v, 28) for k, v in
                             processor.energy_breakdown().items()},
        "energy_total_j": round(processor.energy_total_j(), 28),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_matches_pre_refactor_reference(name):
    mode, chunk, cache, faults = CONFIGS[name]
    reference = GOLDEN[name]
    # JSON round-trip normalisation so floats/keys compare like for
    # like with the committed reference.
    actual = json.loads(json.dumps(observe(mode, chunk, cache, faults),
                                   sort_keys=True))
    for field in reference:
        assert actual[field] == reference[field], \
            f"{name}: field {field!r} diverged from the " \
            f"pre-refactor reference"


def test_reference_covers_every_contract_dimension():
    # Guard the golden file itself: all configs present, each pinning
    # every observable the acceptance criteria name.
    assert set(GOLDEN) == set(CONFIGS)
    for name, payload in GOLDEN.items():
        assert {"verdicts", "ports", "verdict_counts", "tables",
                "events", "gauges", "energy_breakdown",
                "energy_total_j"} <= set(payload), name
        assert len(payload["verdicts"]) == 240, name
