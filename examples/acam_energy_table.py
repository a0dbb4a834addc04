#!/usr/bin/env python3
"""Table-1-style energy comparison for one-shot aCAM tree inference.

Builds the seeded reference traffic classifier, compiles it into an
analog-CAM bank (one row per root-to-leaf path), and costs a single
classification under three realisations: the aCAM one-shot search,
a sequential digital tree walk on the best published digital CAM
technology, and a range-expanded TCAM.  Prints the table and writes
the machine-readable version next to the other benchmark artifacts.

Run:  PYTHONPATH=src python examples/acam_energy_table.py
"""

import json
from pathlib import Path

from repro.acam import (
    ACAMClassifier,
    build_energy_table,
    classifier_spec_from_tree,
    energy_table_json,
    format_energy_table,
    reference_classifier,
)

OUT = Path(__file__).parent.parent / "benchmarks" \
    / "BENCH_acam_energy.json"


def main() -> None:
    tree, names, ranges = reference_classifier()
    compiled = ACAMClassifier(classifier_spec_from_tree(tree, names))
    print("=== One-shot decision-tree inference on the analog CAM ===")
    print(f"  reference classifier: {tree.n_features} features, "
          f"{tree.n_leaves()} leaves -> {compiled.n_rows} aCAM rows")
    print()
    table = build_energy_table(tree, ranges)
    for line in format_energy_table(table):
        print("  " + line)
    doc = energy_table_json(table)
    OUT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print()
    print(f"  wrote {OUT.relative_to(OUT.parent.parent)}")


if __name__ == "__main__":
    main()
