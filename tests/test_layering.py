"""The architectural layering contract, enforced in CI.

``tools/check_layering.py`` walks ``src/repro`` with ``ast`` and
rejects imports that would invert the layering the staged-runtime
refactor established: runtime must stay generic (no dataplane or
netfunc imports), netfunc must not reach up into the dataplane,
``repro.packet`` stays a leaf, and ``repro.control`` sits above
dataplane/fabric/robustness/observability — nothing imports it from
below except the dataplane facade's re-export and the pipeline's
default controller.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import warnings
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
        "repro/runtime/bad_a.py":
            "from repro.dataplane.pipeline import AnalogPacketProcessor\n",
        "repro/runtime/bad_b.py": "import repro.netfunc.firewall\n",
        "repro/netfunc/bad_c.py": "from repro.dataplane import Packet\n",
        "repro/packet.py": "from repro.observability import Observability\n",
        # Rule 7: nothing below the control plane may import it back.
        "repro/fabric/bad_d.py": "import repro.control\n",
        "repro/robustness/bad_e.py":
            "from repro.control.learning import SPSAPolicy\n",
        "repro/observability/bad_f.py":
            "from repro.control import ControlLoop\n",
        "repro/dataplane/bad_g.py": "import repro.control.loop\n",
        # Legal imports planted alongside must NOT be flagged.
        "repro/runtime/good.py": "from repro.observability.tracing "
                                 "import maybe_span\n",
        "repro/dataplane/good.py": "import repro.netfunc.firewall\n",
        # The control plane itself may import everything below it...
        "repro/control/good.py": "import repro.fabric\n"
                                 "from repro.dataplane import switch\n",
        # ...and the sanctioned back-edge stays waived.
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
    assert flagged == {"src/repro/runtime/bad_a.py",
                       "src/repro/runtime/bad_b.py",
                       "src/repro/netfunc/bad_c.py",
                       "src/repro/packet.py",
                       "src/repro/fabric/bad_d.py",
                       "src/repro/robustness/bad_e.py",
                       "src/repro/observability/bad_f.py",
                       "src/repro/dataplane/bad_g.py"}


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


def test_runtime_package_imports_no_dataplane_at_runtime():
    # Belt and braces: actually import the runtime package in a fresh
    # interpreter and confirm it loads no dataplane/netfunc module
    # beyond what the top-level ``repro`` facade already pulled in.
    # (A subprocess, not sys.modules surgery — evicting repro modules
    # mid-suite would hand later tests duplicate enum classes.)
    code = ("import sys; import repro; before = set(sys.modules); "
            "import repro.runtime; "
            "bad = [m for m in set(sys.modules) - before "
            "if m.startswith(('repro.dataplane', 'repro.netfunc'))]; "
            "sys.exit(f'loaded: {bad}' if bad else 0)")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr


def test_dataplane_facade_reexports_control_silently():
    # The one package-level back-edge of rule 7: the dataplane facade
    # keeps re-exporting the control-plane classes, without warning.
    import repro.control as canonical
    import repro.dataplane as dataplane
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        importlib.reload(dataplane)
    assert dataplane.IntentController is canonical.IntentController
    assert dataplane.CognitiveNetworkController \
        is canonical.CognitiveNetworkController
