#!/usr/bin/env python
"""Report the ``src/repro`` functions that no example or benchmark
workload calls.

Runs every ``examples/*.py`` script (each from a copy in a temporary
directory, which is also the working directory, so the files they
write land there and not in the repository) and one seed-0
``run_scenario`` call per :data:`perfbench.workloads.WORKLOADS` entry,
all under :func:`sys.setprofile`.  A function counts as reached when a
frame of its code object starts; a class body runs at import, so it is
not a function and is never counted either way.

Prints, per file, the functions never called with their line spans
(a never-called function's nested functions are inside its span), the
total of those lines, and the line count of every ``.py`` file under
``src/``.  Report only: the exit status is 0 whatever the count.

Run:  python tools/unreached.py
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"


def _run_examples() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        copies = Path(tmp) / "examples"
        shutil.copytree(ROOT / "examples", copies)
        # Examples write their artifacts to ``../benchmarks``.
        (Path(tmp) / "benchmarks").mkdir()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for script in sorted(copies.glob("*.py")):
                sys.argv = [str(script)]
                with open(os.devnull, "w") as sink, \
                        contextlib.redirect_stdout(sink):
                    try:
                        runpy.run_path(str(script), run_name="__main__")
                    except SystemExit as stop:
                        if stop.code not in (None, 0):
                            raise RuntimeError(
                                f"{script.name} exited {stop.code}")
        finally:
            os.chdir(cwd)


def _run_workloads() -> None:
    from perfbench.workloads import WORKLOADS
    from repro.simnet import run_scenario

    for workload in WORKLOADS.values():
        run = workload.make(0)
        run_scenario(run.scenario, seed=0, n_packets=workload.n_packets,
                     **run.kwargs)


def _unreached(tree: ast.Module, starts: set) -> list[tuple[str, int, int]]:
    """``(qualname, first, last)`` of each outermost uncalled function."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [
                    decorator.lineno for decorator in child.decorator_list])
                name = f"{prefix}{child.name}"
                if first in starts:
                    walk(child, f"{name}.")
                else:
                    found.append((name, first, child.end_lineno))
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def main() -> None:
    sys.dont_write_bytecode = True
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    called: set = set()
    sys.setprofile(lambda frame, event, arg: called.add(frame.f_code))
    try:
        _run_examples()
        _run_workloads()
    finally:
        sys.setprofile(None)

    starts: dict[str, set] = {}
    for code in called:
        starts.setdefault(os.path.realpath(code.co_filename), set()).add(
            code.co_firstlineno)
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found = _unreached(tree, starts.get(os.path.realpath(path), set()))
        if not found:
            continue
        lines = sum(last - first + 1 for _, first, last in found)
        total += lines
        print(f"{path.relative_to(ROOT)}: {lines} lines in "
              f"{len(found)} functions")
        for name, first, last in found:
            print(f"    {name}  {first}-{last}")
    src_lines = sum(len(path.read_bytes().splitlines())
                    for path in SRC.rglob("*.py"))
    print(f"total: {total} lines in never-called functions; "
          f"src/ has {src_lines} lines")


if __name__ == "__main__":
    main()
