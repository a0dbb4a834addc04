"""Ablation: the series *product* composition (Figure 4b) vs
alternatives.

The paper composes pCAM stages by multiplying their outputs.  This
bench compares product / min / geometric / mean composition of the
same programmed AQM pipeline on the Figure 8 workload.
"""

import numpy as np

from repro.core.pcam_pipeline import BATCH_COMPOSITIONS
from repro.netfunc.aqm.pcam_aqm import PCAMAQM
from repro.simnet.topology import DumbbellExperiment, overload_profile


def run_compositions():
    experiment = DumbbellExperiment(
        n_flows=6, load=0.9, service_rate_bps=40e6,
        capacity_packets=1500, duration_s=5.0,
        rate_fn=overload_profile(1.0, 4.0, 1.6), seed=3)
    results = {}
    for composition in BATCH_COMPOSITIONS:
        aqm = PCAMAQM(composition=composition,
                      rng=np.random.default_rng(5))
        results[composition] = experiment.run(aqm).recorder.summary()
    return results


def test_ablation_composition(benchmark):
    results = benchmark.pedantic(run_compositions, rounds=1,
                                 iterations=1)

    print("\n=== Composition ablation (Figure 8 workload) ===")
    print(f"{'composition':>12}{'mean [ms]':>11}{'p95 [ms]':>10}"
          f"{'drop rate':>11}")
    for name, summary in results.items():
        print(f"{name:>12}{summary.mean_delay_s * 1e3:>11.1f}"
              f"{summary.p95_delay_s * 1e3:>10.1f}"
              f"{summary.drop_rate:>11.2%}")

    # Every composition keeps the queue stable on this workload.
    for name, summary in results.items():
        assert summary.mean_delay_s < 0.05, name
    # Mean-composition drops most aggressively (a single saturated
    # stage suffices), product is the most conservative of the four.
    assert results["mean"].drop_rate >= results["product"].drop_rate
