import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import scipy
bare = set(sys.modules)
import relwave, relwave.scenarios, relwave.packets, relwave.cli
print(json.dumps(sorted(m for m in set(sys.modules) - bare if m.startswith("scipy."))))
"""


def test_run_path_imports_only_scipy_special_and_fft():
    # every relwave process pays for what its imports load; scipy.signal
    # alone pulls in stats, optimize, sparse, linalg ... (~1 s), so heavier
    # scipy packages are imported inside the function that uses them
    out = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)], check=True,
                         capture_output=True, text=True).stdout
    packages = {m.split(".")[1] for m in json.loads(out)}
    assert {p for p in packages if not p.startswith("_")} <= {"special", "fft"}
    assert {"special", "fft"} <= packages


_RUN_PROBE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from relwave.scenarios import Scenario, run
scn = Scenario(name="probe", family="closed-free", cases=({"vartheta": 2.0, "v0": 0.25},),
               t_list=(0.0, 2.0), x_min=-18.0, x_max=18.0, x_count=301,
               outputs=("metrics", "widths"))
with tempfile.TemporaryDirectory() as out:
    run(scn, out)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy."))))
"""


def test_a_metrics_run_loads_neither_scipy_optimize_nor_signal():
    # the import probe above sees only what importing loads; a lazy import
    # inside the Gaussian fits would show only here (scipy.optimize costs
    # about 0.3 s on its first import)
    out = subprocess.run([sys.executable, "-c", _RUN_PROBE, str(SRC)], check=True,
                         capture_output=True, text=True).stdout
    packages = {m.split(".")[1] for m in json.loads(out)}
    assert "special" in packages
    assert not packages & {"optimize", "signal"}


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # ``from relwave.<module> import *`` with an AttributeError
    import importlib
    import pkgutil

    import relwave

    modules = ["relwave"] + [f"relwave.{m.name}"
                             for m in pkgutil.iter_modules(relwave.__path__)]
    for name in modules:
        namespace = {}
        exec(f"from {name} import *", namespace)
        exported = getattr(importlib.import_module(name), "__all__", ())
        assert all(n in namespace for n in exported), name
