"""Exporter golden: the observability registry after two scenario runs.

``tests/golden/observe_snapshot.json`` pins the registry snapshot that
``run_scenario(..., observe=True)`` folds into its report for seed-0,
20,000-packet runs of ``traffic_classes`` (on
``traffic_classes_spec()``, so the aCAM classification stage runs) and
``flash_crowd`` (default spec, AQM drops).  It covers every bound
source: the telemetry tables, events and gauges, the energy ledger,
the degradation state, the switch's chunk/stage counters and per-stage
energy attribution (``runtime_*``), and the span histograms.

Wall-clock histograms (``span_wall_seconds``,
``profiled_wall_seconds``) differ from run to run, so only each label
set's sample ``count`` is kept for them; every other metric is pinned
whole, floats compared exactly.

Regenerate (only after an intentional behaviour change) with:

    PYTHONPATH=src python tests/test_observe_golden.py
"""

import json
from pathlib import Path

from repro.simnet.scenarios import run_scenario, traffic_classes_spec

GOLDEN_PATH = Path(__file__).parent / "golden" / "observe_snapshot.json"

#: Histograms of wall-clock durations: only their counts are stable.
WALL_CLOCK = frozenset({"span_wall_seconds", "profiled_wall_seconds"})

N_PACKETS = 20_000


def _stable(snapshot: dict) -> list:
    """The snapshot's metrics with wall-clock histograms cut to counts."""
    metrics = []
    for family in snapshot["metrics"]:
        if family["name"] in WALL_CLOCK:
            family = {key: family[key] for key in ("name", "type", "help")}\
                | {"samples": [{"labels": sample["labels"],
                                "count": sample["count"]}
                               for sample in family["samples"]]}
        metrics.append(family)
    return metrics


def observed() -> dict:
    """The stable snapshot of each pinned scenario run."""
    runs = {"traffic_classes": traffic_classes_spec(), "flash_crowd": None}
    return json.loads(json.dumps({
        name: _stable(run_scenario(name, seed=0, n_packets=N_PACKETS,
                                   spec=spec, observe=True).metrics)
        for name, spec in runs.items()}))


def test_snapshots_match_the_golden():
    reference = json.loads(GOLDEN_PATH.read_text())
    assert observed() == reference


def test_golden_pins_the_switch_counters():
    # Guard the golden itself: both runs export the chunk/stage
    # counters and span counts the switch's chunk walk produces.
    reference = json.loads(GOLDEN_PATH.read_text())
    for name, metrics in reference.items():
        names = {family["name"] for family in metrics}
        assert {"runtime_chunks_total", "runtime_stage_runs_total",
                "runtime_stage_joules_total",
                "span_wall_seconds"} <= names, name
    stages = {sample["labels"]["stage"]
              for family in reference["traffic_classes"]
              if family["name"] == "runtime_stage_runs_total"
              for sample in family["samples"]}
    assert stages == {"digital_mats", "acam_classifier", "egress"}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(observed(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
