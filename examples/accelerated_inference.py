#!/usr/bin/env python3
"""The cited aCAM use cases: decision trees and signature matching.

Sec. 7 of the paper surveys what memristor CAMs already accelerate —
decision-tree inference (Graves et al., Pedretti et al.) and regex
matching for intrusion detection (12x FPGA throughput).  This demo
runs both on this repository's substrates:

1. a CART tree trained on synthetic flow features, compiled leaf-by-
   leaf into aCAM rows, classifying a whole batch in one analog
   search and agreeing exactly with the digital tree walk;
2. a multi-signature payload scanner on the memristor TCAM.

Run:  python examples/accelerated_inference.py
"""

import numpy as np

from repro.acam import ACAMClassifier, classifier_spec_from_tree
from repro.energy.ledger import EnergyLedger
from repro.netfunc.decision_tree import CARTTree
from repro.netfunc.pattern_match import PatternMatcher


def decision_tree_demo() -> None:
    print("=== Decision-tree inference on the analog CAM ===")
    rng = np.random.default_rng(8)
    # Synthetic flow dataset: (mean packet size [kB], mean rate
    # [kpps]) with three behaviour classes.
    web = rng.normal([0.4, 0.2], [0.08, 0.05], size=(150, 2))
    video = rng.normal([1.3, 0.6], [0.1, 0.1], size=(150, 2))
    bulk = rng.normal([1.4, 2.0], [0.1, 0.2], size=(150, 2))
    features = np.vstack([web, video, bulk])
    labels = np.array([0] * 150 + [1] * 150 + [2] * 150)
    names = {0: "web", 1: "video", 2: "bulk"}

    tree = CARTTree(max_depth=4).fit(features, labels)
    ledger = EnergyLedger()
    analog = ACAMClassifier(
        classifier_spec_from_tree(tree, ("size_kb", "rate_kpps")),
        ledger=ledger)
    print(f"  tree: {tree.n_leaves()} leaves -> "
          f"{analog.n_rows} aCAM rows (one analog search per batch)")

    agree = analog.predict_batch(features) == tree.predict(features)
    if not agree.all():
        raise SystemExit("aCAM and digital tree disagree")
    print(f"  analog/digital agreement on training data: "
          f"{agree.mean():.1%} (exact)")

    probes = {"typical web flow": (0.42, 0.18),
              "typical video flow": (1.25, 0.65),
              "odd flow (between)": (0.9, 1.2)}
    predicted = analog.predict_batch(np.array(list(probes.values())))
    for label, klass in zip(probes, predicted):
        print(f"  {label:<22} -> {names[int(klass)]}")
    print(f"  total search energy: {ledger.total:.3e} J\n")


def pattern_matching_demo() -> None:
    print("=== Signature matching on the memristor TCAM ===")
    matcher = PatternMatcher(window_bytes=8)
    for signature in (b"attack", b"GET /?", b"\x90\x90\x90\x90",
                      b"/etc/pas"):
        matcher.add_pattern(signature)
    payloads = {
        "clean HTTP": b"POST /api/v1/data HTTP/1.1",
        "probe": b"GET /a HTTP/1.1",
        "exploit": b"junk \x90\x90\x90\x90\x90 /etc/passwd attack",
    }
    for label, payload in payloads.items():
        matches = matcher.scan(payload)
        rendered = ", ".join(
            f"{m.pattern!r}@{m.offset}" for m in matches) or "none"
        print(f"  {label:<12} -> {rendered}")
    print(f"  TCAM search energy for all scans: "
          f"{matcher.search_energy_j:.3e} J")


def main() -> None:
    decision_tree_demo()
    pattern_matching_demo()


if __name__ == "__main__":
    main()
