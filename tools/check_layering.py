#!/usr/bin/env python
"""Layering contract checker for the repro package.

Walks every module under ``src/repro`` with the ``ast`` module (no
imports are executed, no third-party dependency needed) and enforces
the architectural layering of the package:

1. ``repro.netfunc`` holds the cognitive network functions.  They sit
   *below* the switch pipeline and must not import ``repro.dataplane``
   (the dataplane composes them, never the reverse).
2. ``repro.packet`` is a leaf: it may import nothing else from
   ``repro`` (every layer shares the Packet type, so any dependency
   here would be a cycle waiting to happen).
3. ``repro.acam`` is a device-level subsystem like ``repro.core``:
   the dataplane's classification stage composes it, so it must
   never import ``repro.dataplane`` or ``repro.simnet`` back.
4. ``repro.fabric`` is the top *composition* layer (it shards whole
   switches): nothing below it — dataplane, simnet, netfunc — may
   import it back.  The scenario engine reaches fabrics only through
   its duck-typed ``processor_factory`` hook.
5. ``repro.control`` is the *control plane* and sits above
   everything it closes the loop over: dataplane, fabric,
   robustness and observability may not import it back.  The one
   sanctioned back-edge is the pipeline's default-controller
   convenience (``repro.dataplane.pipeline``), which only
   instantiates.
6. ``repro.netfunc`` must not import ``repro.acam``: the aCAM
   compiler and comparison import ``repro.netfunc.decision_tree``,
   so the reverse edge would be an import cycle.
7. ``repro.core`` is the pCAM primitive everything else builds on:
   it imports none of robustness, acam, netfunc, dataplane, simnet,
   fabric or control.
8. ``repro.acam`` must not import ``repro.robustness``: a bank's rows
   are plain pCAM rows, so faults, the clean twin and the row oracle
   reach it from outside, through ``bank.pcam``.
9. ``repro.device`` and ``repro.crossbar`` are the physical
   substrate: they may import no ``repro`` package but each other and
   three cross-cutting helper modules (the ``@profiled`` and
   ``maybe_span`` instrumentation and the energy unit conversions), so
   the one converter model (``crossbar.converters.DAC``) stays below
   the fault taxonomy that quantises through it.

Exit status 0 when clean; 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: module-prefix -> prefixes it must not import (checked transitively
#: over the textual import graph is overkill here: direct imports are
#: what the contract constrains).
FORBIDDEN = {
    "repro.netfunc": ("repro.dataplane", "repro.fabric",
                      "repro.control", "repro.acam"),
    "repro.core": ("repro.robustness", "repro.acam", "repro.netfunc",
                   "repro.dataplane", "repro.simnet", "repro.fabric",
                   "repro.control"),
    "repro.acam": ("repro.dataplane", "repro.simnet", "repro.fabric",
                   "repro.control", "repro.robustness"),
    "repro.packet": ("repro.",),
    "repro.dataplane": ("repro.fabric", "repro.control"),
    "repro.simnet": ("repro.fabric", "repro.control"),
    "repro.fabric": ("repro.control",),
    "repro.robustness": ("repro.control",),
    "repro.observability": ("repro.control",),
}

#: the physical substrate, and the only ``repro`` modules it may
#: import (rule 9).
SUBSTRATE = ("repro.device", "repro.crossbar")
SUBSTRATE_IMPORTS = SUBSTRATE + ("repro.energy.units",
                                 "repro.observability.profiling",
                                 "repro.observability.tracing")

#: exact module -> prefixes its FORBIDDEN rules waive.  The waiver is
#: per-module and per-prefix.
EXCEPTIONS = {
    # The sanctioned control-plane back-edge (rule 5): the pipeline's
    # default-controller construction.
    "repro.dataplane.pipeline": ("repro.control",),
}


def module_name(path: Path) -> str:
    relative = path.relative_to(SRC).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(path: Path, module: str) -> list[tuple[int, str]]:
    """(lineno, absolute module) for every import in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package_parts = module.split(".")
    if path.name != "__init__.py":
        package_parts = package_parts[:-1]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import -> resolve against package
                base = package_parts[:len(package_parts) - node.level + 1]
                prefix = ".".join(base)
                target = f"{prefix}.{node.module}" if node.module \
                    else prefix
            else:
                target = node.module or ""
            found.append((node.lineno, target))
    return found


def within(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def violations() -> list[str]:
    problems = []
    for path in sorted(SRC.glob("repro/**/*.py")):
        module = module_name(path)
        rules = [banned for prefix, banned in FORBIDDEN.items()
                 if within(module, prefix)]
        substrate = any(within(module, prefix) for prefix in SUBSTRATE)
        if not rules and not substrate:
            continue
        waived = EXCEPTIONS.get(module, ())
        rules = [tuple(banned for banned in banned_set
                       if banned not in waived)
                 for banned_set in rules]
        for lineno, target in imported_modules(path, module):
            for banned_set in rules:
                for banned in banned_set:
                    bad = target == banned.rstrip(".") \
                        or target.startswith(banned) \
                        and (banned.endswith(".")
                             or target[len(banned):][:1] in ("", "."))
                    if bad and not target.startswith(module):
                        problems.append(
                            f"{path.relative_to(SRC.parent)}:{lineno}: "
                            f"{module} imports {target} "
                            f"(forbidden by layering contract)")
            if substrate and within(target, "repro") and not any(
                    within(target, prefix) for prefix in SUBSTRATE_IMPORTS):
                problems.append(
                    f"{path.relative_to(SRC.parent)}:{lineno}: "
                    f"{module} imports {target} "
                    f"(the substrate imports only itself and its "
                    f"helper modules)")
    return problems


def main() -> int:
    problems = violations()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} layering violation(s)", file=sys.stderr)
        return 1
    print("layering contract clean: device/crossbar are the substrate, "
          "netfunc |> dataplane/acam, "
          "acam |> dataplane/simnet/robustness, core is the base, "
          "repro.packet is a leaf, repro.fabric composes, "
          "repro.control is the top")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
