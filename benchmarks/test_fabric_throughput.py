"""Fabric scaling: the cache-churn trace across shard counts.

Not a paper artifact — this pins the engineering payoff of the
sharded fabric: the adversarial ``cache_churn`` scenario trace pushed
through one scenario-style switch versus 4-shard fabrics in both
execution modes, all over the columnar ``process_batch`` path (SoA
chunks ride shared memory into the worker processes).

Measured numbers land in ``BENCH_fabric.json`` (with the host core
count, since parallel speedup is core-bound) so CI can archive them,
and the multiprocessing scaling factor is gated against the committed
``BENCH_fabric_baseline.json``: on an M-core host, N multiprocessing
shards must reach ``0.7 * min(N, M)`` of the single-switch
throughput — the ISSUE's scaling floor, capped by physical cores.
Single-core hosts (CI containers) only sanity-gate against collapse:
there is no parallelism to measure.
"""

import json
import os
import time
from pathlib import Path

from repro.fabric import build_fabric
from repro.simnet.scenarios import default_switch_spec, scenario

N_PACKETS = 60_000
CHUNK_SIZE = 8192
ADMISSION_CHUNK = 2048
N_SHARDS = 4
SEED = 23
RESULT_PATH = Path(__file__).parent / "BENCH_fabric.json"
BASELINE_PATH = Path(__file__).parent / "BENCH_fabric_baseline.json"


def churn_chunks():
    entry = scenario("cache_churn")
    return list(entry.stream(seed=SEED, n_packets=N_PACKETS,
                             chunk_size=CHUNK_SIZE))


def run_columns(fabric, chunks) -> int:
    total = 0
    for cols in chunks:
        results = fabric.process_batch(
            cols, now=float(cols.times_s[0]), chunk_size=ADMISSION_CHUNK)
        total += len(results.codes)
    return total


def timed_pass(n_shards: int, mode: str, chunks) -> float:
    spec = default_switch_spec()
    fabric = build_fabric(spec, SEED, n_shards, mode=mode)
    try:
        start = time.perf_counter()
        total = run_columns(fabric, chunks)
        elapsed = time.perf_counter() - start
        assert total == N_PACKETS
        return elapsed
    finally:
        fabric.close()


def test_fabric_scaling_and_regression_gate():
    """4 multiprocessing shards vs one switch, core-aware floor."""
    chunks = churn_chunks()
    host_cores = os.cpu_count() or 1

    serial_s = timed_pass(1, "in_process", chunks)
    inproc_s = timed_pass(N_SHARDS, "in_process", chunks)
    mp_s = timed_pass(N_SHARDS, "multiprocessing", chunks)

    scaling_mp = serial_s / mp_s
    scaling_inproc = serial_s / inproc_s

    report = {
        "n_packets": N_PACKETS,
        "chunk_size": CHUNK_SIZE,
        "admission_chunk": ADMISSION_CHUNK,
        "n_shards": N_SHARDS,
        "host_cores": host_cores,
        "serial_s": round(serial_s, 4),
        "in_process_s": round(inproc_s, 4),
        "multiprocessing_s": round(mp_s, 4),
        "serial_pps": round(N_PACKETS / serial_s),
        "multiprocessing_pps": round(N_PACKETS / mp_s),
        "scaling_in_process": round(scaling_inproc, 3),
        "scaling_multiprocessing": round(scaling_mp, 3),
    }
    RESULT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print(f"\n=== fabric scaling ({N_PACKETS} packets, "
          f"{N_SHARDS} shards, {host_cores} cores) ===")
    print(f"{'mode':>16}{'wall [s]':>12}{'packets/s':>14}{'vs 1':>8}")
    print(f"{'1 switch':>16}{serial_s:>12.3f}"
          f"{N_PACKETS / serial_s:>14,.0f}{'1.00x':>8}")
    print(f"{'4 in-process':>16}{inproc_s:>12.3f}"
          f"{N_PACKETS / inproc_s:>14,.0f}{scaling_inproc:>7.2f}x")
    print(f"{'4 multiproc':>16}{mp_s:>12.3f}"
          f"{N_PACKETS / mp_s:>14,.0f}{scaling_mp:>7.2f}x")

    if host_cores >= 2:
        floor = 0.7 * min(N_SHARDS, host_cores)
        assert scaling_mp >= floor, (
            f"multiprocessing scaling collapsed: {scaling_mp:.2f}x < "
            f"0.7 * min({N_SHARDS} shards, {host_cores} cores) = "
            f"{floor:.2f}x")
    else:
        # One core: no parallel win possible; gate only against the
        # orchestration tax exploding (steering + IPC + shm should
        # stay within ~4x of the serial walk).
        assert scaling_mp >= 0.25, (
            f"single-core fabric overhead exploded: {scaling_mp:.2f}x "
            f"of serial throughput")

    baseline = json.loads(BASELINE_PATH.read_text())
    if host_cores >= 2 and baseline.get("host_cores", 1) >= 2:
        floor = 0.8 * baseline["scaling_multiprocessing"]
        assert scaling_mp >= floor, (
            f"fabric scaling regressed: {scaling_mp:.2f}x < "
            f"{floor:.2f}x (80% of baseline "
            f"{baseline['scaling_multiprocessing']:.2f}x)")
