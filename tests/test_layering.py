"""The architectural layering contract, enforced in CI.

``tools/check_layering.py`` walks ``src/repro`` with ``ast`` and
rejects imports that would invert the package's layering: netfunc
must not reach up into the dataplane or across into acam, core
imports none of the layers built on it, ``repro.packet`` stays a leaf,
``repro.control`` sits above dataplane/fabric/robustness/
observability — nothing imports it from below except the pipeline's
default-controller convenience — and device/crossbar, the physical
substrate, import no ``repro`` package but each other and three helper
modules.
"""

import importlib
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_layering", REPO / "tools" / "check_layering.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repository_is_clean():
    checker = load_checker()
    assert checker.violations() == []


def test_checker_catches_a_planted_violation(tmp_path, monkeypatch):
    # The test must fail when the contract is broken, not only pass
    # when it holds — plant each forbidden import in a fake tree.
    checker = load_checker()
    src = tmp_path / "src"
    cases = {
        "repro/netfunc/bad_c.py": "from repro.dataplane import Packet\n",
        "repro/packet.py": "from repro.observability import Observability\n",
        # Rule 5: nothing below the control plane may import it back.
        "repro/fabric/bad_d.py": "import repro.control\n",
        "repro/robustness/bad_e.py":
            "from repro.control.learning import SPSAPolicy\n",
        "repro/observability/bad_f.py":
            "from repro.control import ControlLoop\n",
        "repro/dataplane/bad_g.py": "import repro.control.loop\n",
        # Rule 6: netfunc must not import acam (acam imports netfunc).
        "repro/netfunc/bad_h.py": "from repro.acam import ACAMArray\n",
        # Rule 7: core imports none of the layers built on it.
        "repro/core/bad_i.py":
            "from repro.robustness.models import FaultModel\n",
        # Rule 8: faults reach an aCAM bank from outside, via bank.pcam.
        "repro/acam/bad_j.py":
            "from repro.robustness.injector import FaultInjector\n",
        # Rule 9: the physical substrate imports only itself and its
        # helper modules.
        "repro/crossbar/bad_k.py":
            "from repro.robustness.models import ConverterQuantization\n",
        # Legal imports planted alongside must NOT be flagged.
        "repro/device/good.py": "from repro.crossbar.array import Crossbar\n"
                                "from repro.energy.units import "
                                "joules_to_femtojoules\n",
        "repro/dataplane/good.py": "import repro.netfunc.firewall\n",
        # The control plane itself may import everything below it...
        "repro/control/good.py": "import repro.fabric\n"
                                 "from repro.dataplane import switch\n",
        # The old shim paths and the facade get no waiver any more...
        "repro/dataplane/control_loop.py":
            "from repro.control.intent import Intent\n",
        "repro/dataplane/controller.py":
            "from repro.control.cognitive import "
            "CognitiveNetworkController\n",
        "repro/dataplane/__init__.py":
            "from repro.control.intent import IntentController\n",
        # ...while the pipeline's default controller stays waived.
        "repro/dataplane/pipeline.py":
            "from repro.control.cognitive import "
            "CognitiveNetworkController\n",
    }
    for relative, body in cases.items():
        path = src / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(body)
    monkeypatch.setattr(checker, "SRC", src)
    problems = checker.violations()
    flagged = {p.split(":")[0] for p in problems}
    assert flagged == {"src/repro/netfunc/bad_c.py",
                       "src/repro/packet.py",
                       "src/repro/fabric/bad_d.py",
                       "src/repro/robustness/bad_e.py",
                       "src/repro/observability/bad_f.py",
                       "src/repro/dataplane/bad_g.py",
                       "src/repro/netfunc/bad_h.py",
                       "src/repro/core/bad_i.py",
                       "src/repro/acam/bad_j.py",
                       "src/repro/crossbar/bad_k.py",
                       "src/repro/dataplane/control_loop.py",
                       "src/repro/dataplane/controller.py",
                       "src/repro/dataplane/__init__.py"}


def test_relative_imports_resolved(tmp_path, monkeypatch):
    checker = load_checker()
    src = tmp_path / "src"
    bad = src / "repro" / "netfunc" / "sub" / "bad.py"
    bad.parent.mkdir(parents=True)
    # "from ...dataplane import x" inside repro.netfunc.sub resolves
    # to repro.dataplane — the checker must see through the dots.
    bad.write_text("from ...dataplane import pipeline\n")
    monkeypatch.setattr(checker, "SRC", src)
    assert len(checker.violations()) == 1


def test_every_package_exports_what_its_all_names():
    # A deleted module must take its names out of the package's
    # ``__all__`` too, or ``from repro.x import *`` breaks.
    src = REPO / "src"
    for init in sorted((src / "repro").rglob("__init__.py")):
        name = ".".join(init.parent.relative_to(src).parts)
        package = importlib.import_module(name)
        missing = [export for export in package.__all__
                   if not hasattr(package, export)]
        assert missing == [], f"{name}: {missing}"
