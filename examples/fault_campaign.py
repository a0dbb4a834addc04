#!/usr/bin/env python3
"""Fault-injection campaign over the analog AQM stack.

Sweeps the default fault-model set (stuck-at cells, conductance
drift, programming-pulse variance, converter quantization, transient
read noise) across the device -> crossbar -> pCAM array -> AQM
pipeline layers, compares every faulted pipeline against its ideal
digital twin with the differential oracle, and pushes synthetic
congestion through the graceful-degradation wrapper so per-table
fallback, retry backoff and energy cost are measured end to end.

Run:  python examples/fault_campaign.py [seed]
"""

import sys

from repro.robustness import CampaignConfig, FaultCampaign


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    config = CampaignConfig(seed=seed, n_probes=128, n_steps=48)
    result = FaultCampaign(config).run()

    print("=== Differential-oracle degradation per fault model ===")
    for line in result.summary_lines():
        print(line)

    print("\n=== Layered view (crossbar / array / dataplane) ===")
    for record in result.records:
        crossbar = (f"{record.crossbar_relative_error:.3f}"
                    if record.crossbar_relative_error is not None
                    else "  -  ")
        print(f"  {record.model:<32} crossbar_rel_err={crossbar} "
              f"array_err={record.array_mean_abs_error:.4f} "
              f"cells={record.n_injected}")

    print("\n=== Graceful degradation under congestion ===")
    for record in result.records:
        state = ("fell back to digital CoDel" if record.fallback_engaged
                 else "stayed analog")
        print(f"  {record.model:<32} {state}; retries={record.retries} "
              f"recoveries={record.recoveries} "
              f"aqm_drops={record.aqm_drops}")

    worst = max(result.records,
                key=lambda r: r.deviation.mean_abs_error)
    print(f"\nworst model: {worst.model} "
          f"(mean |dPDP| = {worst.deviation.mean_abs_error:.4f}); "
          f"all runs recorded through the shared energy ledger "
          f"(baseline {result.baseline_energy_j:.3e} J).")


if __name__ == "__main__":
    main()
