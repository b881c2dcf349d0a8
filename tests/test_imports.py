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


def _probe(code: str, *args: str):
    """The JSON of the last line ``code`` prints in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", code, str(SRC), *args], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


@functools.lru_cache(maxsize=None)
def _run_path_stages():
    return _probe(_PROBE)


def test_run_path_loads_no_scipy_module():
    # importing scipy.special cost a relwave process about 0.2 s and 19 MiB:
    # K0/K1 are a numpy pass and the chirp-z transform uses numpy.fft, so
    # no stage of the run path, closed-free packets included, loads scipy
    stages = _run_path_stages()
    assert all(modules == [] for modules in stages.values()), stages


def test_a_metrics_run_loads_neither_scipy_optimize_nor_signal():
    # a lazy import inside the Gaussian fits would show only in the runs
    # (scipy.optimize costs about 0.3 s, scipy.signal about 1 s): the
    # closed-free run, with metrics and widths outputs, loads nothing beyond
    # what building its Scenario loaded
    stages = _run_path_stages()
    assert stages["closed run"] == stages["closed scenario"]
    packages = {m.split(".")[1] for stage in stages.values() for m in stage if "." in m}
    assert not packages & {"optimize", "signal"}


_BUILT_PROBE = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
from relwave.scenarios import Scenario, run
# the density of x_count = 1001 at two times is large enough for format_g17
closed = Scenario(name="closed", family="closed-free", cases=({"vartheta": 2.0, "v0": 0.25},),
                  t_list=(0.0, 2.0), x_min=-18.0, x_max=18.0, x_count=1001,
                  outputs=("density", "metrics", "widths"))
phase = Scenario(name="phase", family="closed-free", t_list=(0.0,), outputs=("phase",),
                 cases=({"vartheta": 100.0, "v0": 0.25},
                        {"family": "gauss-free", "sigma0": 0.3, "gamma0": 10.0},
                        {"family": "uniform-field", "sigma0": 0.3, "gamma0": 10.0,
                         "force": 0.1}),
                 phase_t_max=8.0, phase_dt=0.25, x_max=40.0)
added = {}
with tempfile.TemporaryDirectory() as out:
    for scn in (closed, phase):
        before = set(sys.modules)
        run(scn, out)
        added[scn.name] = sorted(set(sys.modules) - before)
print(json.dumps(added))
"""


def test_a_run_loads_no_module_once_its_scenario_is_built():
    # a module loaded inside run is paid in its wall time: numpy.fft and
    # numpy.ma load lazily (np.isin reaches numpy.ma through np.unique), and
    # the K0/K1 node tables are built with the Scenario's K1 normalization
    assert _probe(_BUILT_PROBE) == {"closed": [], "phase": []}


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


_VERIFY_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from relwave.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["verify"])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_verify_loads_no_scipy_module():
    # criterion 4's peaks once came from scipy.signal, about 1 s of import
    assert _probe(_VERIFY_PROBE) == []


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
