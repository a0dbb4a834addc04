#!/usr/bin/env python3
"""Cognitive network functions beyond AQM: load balancing and
traffic analysis on probabilistic matches.

Both functions exploit the analog-CAM capability of RQ1: a query with
zero deterministic matches still returns the *closest* stored policy.
Traffic analysis stores one aCAM row per class profile, each
``(lo, hi, fade)`` window an ``ACAMInterval(lo, hi, margin=fade)``,
and classifies a batch of flows with one ``search_batch``.

Run:  python examples/cognitive_functions.py
"""

import numpy as np

from repro.acam import ACAMArray, ACAMInterval
from repro.energy.ledger import EnergyLedger
from repro.netfunc.load_balancer import Backend, PCAMLoadBalancer
from repro.netfunc.traffic_analysis import FEATURES, FlowFeatures

#: Class profiles: per-feature (accept_lo, accept_hi, fade) windows.
PROFILES = {
    "web": {"mean_packet_size": (200.0, 600.0, 200.0),
            "mean_interarrival_s": (0.01, 0.2, 0.05),
            "burstiness": (0.5, 1.5, 0.5)},
    "video": {"mean_packet_size": (1000.0, 1500.0, 200.0),
              "mean_interarrival_s": (0.001, 0.01, 0.005),
              "burstiness": (0.2, 1.0, 0.5)},
    "voip": {"mean_packet_size": (100.0, 300.0, 100.0),
             "mean_interarrival_s": (0.015, 0.025, 0.01),
             "burstiness": (0.0, 0.3, 0.3)},
}


def load_balancing_demo() -> None:
    print("=== Cognitive load balancing ===")
    backends = [Backend("alpha", capacity=1.0),
                Backend("beta", capacity=1.0),
                Backend("gamma", capacity=0.5)]
    balancer = PCAMLoadBalancer(backends, comfort=0.7, saturation=1.2,
                                rng=np.random.default_rng(1))
    rng = np.random.default_rng(2)
    # Assign and release work with a random hold pattern.
    active: list[Backend] = []
    for _ in range(2000):
        active.append(balancer.assign(load=0.05))
        if len(active) > 25:
            balancer.release(active.pop(0), load=0.05)
    print(f"{'backend':>8}{'capacity':>10}{'served':>8}{'final util':>12}")
    for backend in backends:
        print(f"{backend.name:>8}{backend.capacity:>10.1f}"
              f"{backend.served:>8}{backend.utilisation:>12.2f}")
    print("The half-capacity backend receives proportionally less "
          "traffic,\nwith no explicit weight configuration — its "
          "fitness cell saturates earlier.\n")


def traffic_analysis_demo() -> None:
    print("=== Cognitive traffic analysis ===")
    ledger = EnergyLedger()
    bank = ACAMArray(FEATURES, ledger=ledger)
    for windows in PROFILES.values():
        bank.add_row({feature: ACAMInterval(lo, hi, margin=fade)
                      for feature, (lo, hi, fade) in windows.items()})
    names = list(PROFILES)
    rng = np.random.default_rng(3)
    flows = {
        "browsing session": FlowFeatures.from_samples(
            rng.normal(400, 80, 500),
            np.cumsum(rng.exponential(0.05, 500))),
        "video stream": FlowFeatures.from_samples(
            rng.normal(1300, 100, 500),
            np.cumsum(rng.exponential(0.004, 500))),
        "voip call": FlowFeatures.from_samples(
            rng.normal(180, 20, 500),
            np.cumsum(np.full(500, 0.02))),
        "unknown (odd sizes)": FlowFeatures.from_samples(
            rng.normal(750, 50, 500),
            np.cumsum(rng.exponential(0.05, 500))),
    }
    result = bank.search_batch({
        feature: np.array([flow.as_query()[feature]
                           for flow in flows.values()])
        for feature in FEATURES})
    for label, scores, best in zip(flows, result.probabilities,
                                   result.best_rows):
        ranking = ", ".join(f"{names[row]}={scores[row]:.2f}"
                            for row in np.argsort(-scores, kind="stable"))
        print(f"  {label:<22} -> {names[best]:<6} ({ranking})")
    print("The last flow matches no profile deterministically; the "
          "aCAM bank\nstill ranks it against every stored class "
          "(partial match).")
    print(f"Search energy: {ledger.total:.3g} J "
          f"({len(flows)} flows x {len(bank)} rows, acam.search)")


def main() -> None:
    load_balancing_demo()
    traffic_analysis_demo()


if __name__ == "__main__":
    main()
