import functools
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROBE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import relwave, relwave.scenarios, relwave.packets, relwave.cli, relwave.acceptance
from relwave.scenarios import Scenario, run
stages = {"import": scipy_modules()}
grid = dict(t_list=(0.0, 2.0), x_min=-18.0, x_max=18.0, x_count=301,
            outputs=("density", "metrics", "widths"))
with tempfile.TemporaryDirectory() as out:
    run(Scenario(name="gauss", family="gauss-free",
                 cases=({"sigma0": 3.0, "gamma0": 1.0},), **grid), out)
    run(Scenario(name="field", family="uniform-field",
                 cases=({"sigma0": 3.0, "gamma0": 1.0, "force": 0.5},), **grid), out)
    stages["gauss and field runs"] = scipy_modules()
    closed = Scenario(name="closed", family="closed-free",
                      cases=({"vartheta": 2.0, "v0": 0.25},), **grid)
    stages["closed scenario"] = scipy_modules()
    run(closed, out)
    stages["closed run"] = scipy_modules()
print(json.dumps(stages))
"""

_BARE_SCIPY = """
import json, sys
import scipy
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _probe(code: str, *args: str):
    """The JSON of the last line ``code`` prints in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code, str(SRC), *args], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


@functools.lru_cache(maxsize=None)
def _run_path_stages():
    return _probe(_PROBE)


def test_run_path_imports_only_scipy_special_and_fft():
    # importing scipy.special costs a relwave process about 0.3 s and 25 MiB,
    # and only the closed-free packets need it (for K0 and K1): importing
    # relwave and running gauss-free and uniform-field packets load no scipy
    # module, and a closed-free Scenario loads scipy.special when it is built
    # (its K1 normalization).  The chirp-z transform uses numpy.fft, so
    # scipy.fft is no longer loaded either
    stages = _run_path_stages()
    assert stages["import"] == []
    assert stages["gauss and field runs"] == []
    loaded = set(stages["closed scenario"]) - set(_probe(_BARE_SCIPY))
    assert {m.split(".")[1] for m in loaded if not m.split(".")[1].startswith("_")} \
        == {"special"}


def test_a_metrics_run_loads_neither_scipy_optimize_nor_signal():
    # a lazy import inside the Gaussian fits would show only in the runs
    # (scipy.optimize costs about 0.3 s, scipy.signal about 1 s): the
    # closed-free run, with metrics and widths outputs, loads nothing beyond
    # what building its Scenario loaded
    stages = _run_path_stages()
    assert stages["closed run"] == stages["closed scenario"]
    packages = {m.split(".")[1] for stage in stages.values() for m in stage if "." in m}
    assert not packages & {"optimize", "signal"}


_CLI_PROBE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from relwave.cli import main
with tempfile.TemporaryDirectory() as out:
    main(["list"])
    code = main(["run", "--scenario", sys.argv[2], "--out-dir", out])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy"))]))
"""


def test_resolving_a_builtin_builds_only_that_builtin():
    # resolve_scenario once built the whole catalog, whose closed-free
    # figures load scipy.special; the fig7 alias builds fig7's packets only
    code, modules = _probe(_CLI_PROBE, "fig7-lowerleft")
    assert code == 0 and modules == []


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
