#!/usr/bin/env python3
"""One observability hub across the whole cognitive packet processor.

Builds the Figure 5 pipeline with a shared
:class:`~repro.observability.hub.Observability` hub, pushes enough
traffic through the scalar and batched paths to exercise every stage
(parser -> digital MATs -> pCAM AQM -> egress queues), then shows the
three faces of the layer:

* the hub's unified metrics snapshot (``obs.snapshot()``) —
  table hit/miss statistics, energy-account totals, degradation
  fallback/retry counters and per-stage latency histograms, in one
  mapping;
* the Prometheus text exposition (what a scrape endpoint would
  serve), validated with the built-in lint;
* the span tree of one traced batch and the ``@profiled`` wall-time
  histograms of the hot kernels.

Run:   python examples/observability_demo.py
Check: python examples/observability_demo.py --check
       (exits non-zero if the Prometheus export fails the lint — the
       CI gate)
"""

import sys

from repro.dataplane.pipeline import AnalogPacketProcessor
from repro.dataplane.switch import SwitchSpec, build_switch
from repro.observability import Observability
from repro.observability.export import lint_prometheus
from repro.observability.profiling import PROFILE_METRIC
from repro.packet import Packet


def make_packet(index: int) -> Packet:
    return Packet(fields={"src_ip": f"10.1.{index % 8}.{index % 32}",
                          "dst_ip": "10.2.2.2", "protocol": 17,
                          "src_port": 1000 + index, "dst_port": 80},
                  size_bytes=400)


def run_traffic(processor: AnalogPacketProcessor) -> None:
    now = 0.0
    # Scalar path first (builds the backlog the AQM reacts to) ...
    for index in range(32):
        now = index * 2e-5
        processor.process(make_packet(index), now=now)
    # ... then the batched path, chunked through the vectorised pCAM.
    batch = [make_packet(index) for index in range(64)]
    processor.process_batch(batch, now=now + 2e-5, chunk_size=16)
    processor.drain(0, now=now + 1e-3, limit=16)


def main() -> int:
    check_only = "--check" in sys.argv[1:]

    obs = Observability()
    spec = SwitchSpec(n_ports=2, port_rate_bps=2e8,
                      graceful_degradation=True,
                      routes=(("10.0.0.0/8", 0),
                              ("192.168.0.0/16", 1)))
    processor = build_switch(spec, observability=obs)
    run_traffic(processor)

    text = obs.to_prometheus()
    problems = lint_prometheus(text)

    if check_only:
        if problems:
            for problem in problems:
                print(f"LINT: {problem}", file=sys.stderr)
            return 1
        snapshot = obs.snapshot()
        names = {entry["name"] for entry in snapshot["metrics"]}
        required = {"dataplane_table_hits_total",
                    "energy_account_joules_total",
                    "degradation_fallback_total",
                    "span_wall_seconds", PROFILE_METRIC}
        missing = required - names
        if missing:
            print(f"MISSING METRICS: {sorted(missing)}", file=sys.stderr)
            return 1
        print(f"ok: {len(text.splitlines())} exposition lines, "
              f"{len(snapshot['metrics'])} metric families, "
              f"{len(obs.tracer.finished)} spans, lint clean")
        return 0

    print("=== Prometheus exposition (one scrape) ===")
    print(text, end="")
    print(f"[lint: {'clean' if not problems else problems}]")

    print("\n=== Hub snapshot (unified JSON) ===")
    snapshot = processor.observability.snapshot()
    for entry in snapshot["metrics"]:
        n = len(entry["samples"])
        print(f"  {entry['name']:<36} {entry['type']:<9} "
              f"{n} sample{'s' if n != 1 else ''}")

    print("\n=== Trace of the last batch (span tree) ===")
    print(obs.tracer.format_tree(limit=24))

    print("\n=== @profiled kernel wall times ===")
    for entry in snapshot["metrics"]:
        if entry["name"] != PROFILE_METRIC:
            continue
        for sample in entry["samples"]:
            site = sample["labels"]["site"]
            count = sample["count"]
            mean_us = (sample["sum"] / count * 1e6) if count else 0.0
            print(f"  {site:<28} calls={count:<5} "
                  f"mean={mean_us:.1f}us")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
