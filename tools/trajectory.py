#!/usr/bin/env python
"""Append one row to the performance trajectory of a checkout.

Measures a checkout (by default the one this file is in) and appends
one row to ``benchmarks/BENCH_trajectory.json`` in this repository:

* ``sha`` (the checkout's git HEAD), ``cpus``, ``python``, ``numpy``
  and ``src_lines`` (lines of every ``.py`` file under ``src/``);
* ``workloads``: for each workload ``BENCHMARK.json`` lists, the
  ``pps``, ``setup_s`` and ``peak_rss_mb`` of one ``perfbench/run.py
  --workload <name> --trace 0`` subprocess (the JSON object on the
  last line of its output), with its ``correct`` and ``failed``;
* ``slice_floor``: for each workload of
  ``benchmarks/test_slice_floor.py``, its four per-slice counts and
  its fixed microseconds per slice;
* ``unreached_lines``: the never-called line total that
  ``tools/unreached.py`` prints.

Report only: nothing here compares rows or fails on a number.  Every
step runs the checkout's own scripts, one process at a time.

Run:  python tools/trajectory.py [--checkout PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "benchmarks" / "BENCH_trajectory.json"

#: The slice floor's fields a row keeps, per workload.
SLICE_FIELDS = ("repro_calls_per_slice", "tcam_searches_per_slice",
                "admission_calls_per_slice", "pcam_kernel_calls_per_slice",
                "fixed_us_per_slice")
#: The end-to-end metrics a row keeps, per workload.
METRICS = ("pps", "setup_s", "peak_rss_mb")
_UNREACHED = re.compile(r"^total: (\d+) lines in never-called functions")


def _run(checkout: Path, *args: str) -> str:
    """Standard output of ``python <args>`` run in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                          check=True, capture_output=True,
                          text=True).stdout


def _workload(checkout: Path, name: str) -> dict:
    output = _run(checkout, "perfbench/run.py", "--workload", name,
                  "--trace", "0")
    result = json.loads(output.strip().splitlines()[-1])
    row = {metric: result["metrics"][metric]["value"]
           for metric in METRICS}
    row.update(correct=result["correct"], failed=result["failed"])
    return row


def _slice_floor(checkout: Path) -> dict:
    _run(checkout, "-m", "pytest", "benchmarks/test_slice_floor.py", "-q",
         "-p", "no:cacheprovider")
    floor = json.loads(
        (checkout / "benchmarks" / "BENCH_slice_floor.json").read_text())
    return {workload: {field: row[field] for field in SLICE_FIELDS}
            for workload, row in floor["workloads"].items()}


def _unreached(checkout: Path) -> int:
    for line in _run(checkout, "tools/unreached.py").splitlines():
        match = _UNREACHED.match(line)
        if match:
            return int(match.group(1))
    raise RuntimeError("tools/unreached.py printed no total")


def measure(checkout: Path) -> dict:
    """One trajectory row for ``checkout``."""
    manifest = json.loads((checkout / "BENCHMARK.json").read_text())
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    return {
        "sha": sha,
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "src_lines": sum(len(path.read_bytes().splitlines())
                         for path in (checkout / "src").rglob("*.py")),
        "workloads": {workload["name"]: _workload(checkout,
                                                  workload["name"])
                      for workload in manifest["workloads"]},
        "slice_floor": _slice_floor(checkout),
        "unreached_lines": _unreached(checkout),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="the checkout to measure (default: this one)")
    args = parser.parse_args()
    row = measure(args.checkout.resolve())
    rows = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() \
        else []
    rows.append(row)
    TRAJECTORY.write_text(json.dumps(rows, indent=1) + "\n")
    print(json.dumps(row))


if __name__ == "__main__":
    main()
