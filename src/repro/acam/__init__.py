"""Analog CAM: interval cells, one-shot row search, tree compilation.

The pCAM of the paper is one instance of a broader primitive the
related work develops (Li et al., "Analog content addressable
memories with memristors"; Bazzi et al., "Efficient Analog CAM
Design"; Pedretti et al., tree inference in aCAM): cells that store
an analog *interval* as two programmable memristor conductances, and
rows that match an entire feature vector in a single search cycle.

This package builds that primitive on top of the repo's pCAM
machinery and maps :mod:`repro.netfunc.decision_tree` onto it:

* :mod:`repro.acam.cell`    — interval values (conductance-bounded
  windows with analog margin/sharpness skirts) lowered onto plain
  pCAM cells;
* :mod:`repro.acam.array`   — vectorised multi-row search over a
  :class:`~repro.core.pcam_array.PCAMArray`, whose rows are the
  bank's one fault surface for :mod:`repro.robustness`;
* :mod:`repro.acam.compiler`— root-to-leaf paths flattened to rows,
  and the one classifier the switch installs and tree prediction
  uses: one ``search_batch`` per chunk;
* :mod:`repro.acam.energy`  — the published-figure energy model;
* :mod:`repro.acam.comparison` — the Table-1-style comparison vs the
  digital tree walk and a range-expanded TCAM.
"""

from repro.acam.array import (
    ACAM_SEARCH_ACCOUNT,
    ACAMArray,
    ACAMBatchResult,
    ACAMSearchResult,
)
from repro.acam.cell import ACAMInterval, UNBOUNDED
from repro.acam.comparison import (
    EnergyTableRow,
    build_energy_table,
    energy_table_json,
    format_energy_table,
    reference_classifier,
)
from repro.acam.compiler import (
    ACAMClassifier,
    ClassifierSpec,
    TreePath,
    classifier_spec_from_tree,
    compile_rows,
    tree_paths,
)
from repro.acam.energy import ACAMEnergyModel, published_acam_energy

__all__ = [
    "ACAM_SEARCH_ACCOUNT",
    "ACAMArray",
    "ACAMBatchResult",
    "ACAMClassifier",
    "ACAMEnergyModel",
    "ACAMInterval",
    "ACAMSearchResult",
    "ClassifierSpec",
    "EnergyTableRow",
    "TreePath",
    "UNBOUNDED",
    "build_energy_table",
    "classifier_spec_from_tree",
    "compile_rows",
    "energy_table_json",
    "format_energy_table",
    "published_acam_energy",
    "reference_classifier",
    "tree_paths",
]
