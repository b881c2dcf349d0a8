"""Tests of the benchmark's own machinery: ``python3 -m pytest perfbench``."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from relwave import field_packets, free_packets, scenarios, specfun  # noqa: E402
from relwave.scenarios import Scenario, run  # noqa: E402
from tracing import ROOT, Tracer, self_times  # noqa: E402

TINY = Scenario(name="tiny", family="gauss-free",
                cases=({"sigma0": 3.0, "gamma0": 1.0},), t_list=(0.0, 2.0),
                x_min=-18.0, x_max=18.0, x_count=301,
                outputs=("density", "metrics"), normalization="unit-charge")


def test_self_times_add_up_to_root_duration():
    # root [0, 10] > a [1, 4] > c [2, 3];  root > b [5, 9] > d [5, 6], e [7, 8.5]
    spans = [("root", 0.0, 10.0, -1, 1), ("a", 1.0, 4.0, 0, 1), ("c", 2.0, 3.0, 1, 1),
             ("b", 5.0, 9.0, 0, 1), ("d", 5.0, 6.0, 3, 1), ("e", 7.0, 8.5, 3, 1)]
    own = self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5])
    assert sum(own) == pytest.approx(10.0)


@pytest.fixture()
def tracer():
    tr = Tracer()
    tr.install()
    yield tr
    tr.uninstall()


def test_tracer_wraps_every_import_site(tracer):
    assert free_packets.bessel_k1 is specfun.bessel_k1
    assert free_packets.bessel_k1.__wrapped__ is not specfun.bessel_k1
    assert field_packets.pcf_d is specfun.pcf_d is not field_packets.pcf_d.__wrapped__
    assert scenarios.gauss_slice is free_packets.gauss_slice
    assert "__wrapped__" in vars(scenarios.gauss_slice)
    assert tracer.missing == []


def test_traced_self_times_account_for_the_run(tracer, tmp_path):
    root = tracer.open(ROOT)
    scenarios.run(TINY, out_dir=tmp_path)
    tracer.close(root)
    layers = tracer.layer_metrics()
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["scenarios.jobs"] == 2
    assert layers["scenarios.slices"] == 4
    assert layers["free_packets.superpose.calls"] > 0
    assert 0.0 < layers["free_packets.cache_hit_ratio"] < 1.0


def test_uninstall_restores_originals():
    original = free_packets.bessel_k1
    tr = Tracer()
    tr.install()
    assert free_packets.bessel_k1 is not original
    tr.uninstall()
    assert free_packets.bessel_k1 is original is specfun.bessel_k1


def _outputs(tmp_path):
    manifest = run(TINY, out_dir=tmp_path)
    return {checks.kind_of(TINY, f): tmp_path / f for f in manifest.outputs}


def _rewrite(path, edit):
    header, data = checks.read_csv(path)
    edit(dict(zip(header, range(len(header)))), data)
    rows = [",".join(f"{v:.17g}" for v in row) for row in data]
    path.write_text(",".join(header) + "\n" + "\n".join(rows) + "\n")


def test_unchanged_outputs_pass(tmp_path):
    paths = _outputs(tmp_path)
    reference = {p.name: checks.check_file(TINY, TINY.cases[0], p)[1]
                 for p in paths.values()}
    for path in paths.values():
        assert checks.check_file(TINY, TINY.cases[0], path, reference)[0] is None


@pytest.mark.parametrize("kind,column,change,reason", [
    ("density", "re_psi", lambda v, s: v + 1e-5 * s, "re_psi row"),
    ("density", "rho", lambda v, s: v * 1.01, "total charge"),
    ("metrics", "G_psi", lambda v, s: 1.5, "outside (0, 1]"),
    ("metrics", "sigma_rho", lambda v, s: np.nan, "non-finite"),
    ("metrics", "sigma_psi", lambda v, s: -v, "not > 0"),
])
def test_perturbed_output_is_counted_failed(tmp_path, kind, column, change, reason):
    paths = _outputs(tmp_path)
    reference = {p.name: checks.check_file(TINY, TINY.cases[0], p)[1]
                 for p in paths.values()}

    def edit(cols, data):
        j = cols[column]
        i = int(np.argmax(np.abs(data[:, j])))  # row 0 of every stride is referenced
        i -= i % reference[paths[kind].name]["stride"]
        data[i, j] = change(data[i, j], np.max(np.abs(data[:, j])))

    _rewrite(paths[kind], edit)
    why, _ = checks.check_file(TINY, TINY.cases[0], paths[kind], reference)
    assert why is not None and reason in why
