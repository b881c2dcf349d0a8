import dataclasses
import hashlib
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from relwave import cli, field_packets, free_packets, packets, scenarios, specfun
from relwave.analysis import BracketError
from relwave.cli import main as cli_main
from relwave.scenarios import (Scenario, ScenarioError, builtin_scenarios,
                               list_scenarios, load_config, resolve_scenario,
                               run)
from relwave.specfun import SpecFunAccuracyError

TINY = Scenario(
    name="tiny", family="gauss-free",
    cases=({"sigma0": 3.0, "gamma0": 1.0},),
    t_list=(0.0, 2.0), x_min=-18.0, x_max=18.0, x_count=301,
    outputs=("density", "metrics"),
)


def test_catalog_has_nine_entries():
    cat = builtin_scenarios()
    assert len(cat) == 9
    assert sorted(cat) == [f"fig{i}" for i in range(1, 10)]
    for name, desc in list_scenarios():
        assert name.startswith("fig") and desc


def test_unknown_scenario_lists_catalog():
    with pytest.raises(ScenarioError, match="fig1"):
        resolve_scenario("fig99")


def test_alias_restricts_outputs():
    scn = resolve_scenario("fig7-lowerleft")
    assert scn.outputs == ("spectrum",)
    assert scn.family == "uniform-field"


def test_scenario_validation():
    base = dict(name="x", family="gauss-free",
                cases=({"sigma0": 1.0, "gamma0": 1.0},), t_list=(0.0,))
    with pytest.raises(ScenarioError):
        Scenario(**{**base, "t_list": ()})
    with pytest.raises(ScenarioError):
        Scenario(**{**base, "x_count": 32})
    with pytest.raises(ScenarioError):
        Scenario(**{**base, "family": "warp"})
    with pytest.raises(ScenarioError):
        Scenario(**{**base, "outputs": ("holograms",)})
    with pytest.raises(ScenarioError):
        Scenario(**{**base, "normalization": "unit-vibes"})
    with pytest.raises(ScenarioError):
        Scenario(**{**base, "cases": ()})
    with pytest.raises(ScenarioError, match="t_list values must be finite"):
        Scenario(**{**base, "t_list": (0.0, np.inf)})
    for key in ("x_min", "x_max", "p_min", "p_max", "phase_t_max"):
        for bad in (np.nan, -np.inf, np.inf):
            with pytest.raises(ScenarioError, match="grid bounds must be finite"):
                Scenario(**{**base, key: bad})


def test_run_writes_outputs_and_manifest(tmp_path):
    manifest = run(TINY, out_dir=tmp_path)
    assert len(manifest.outputs) == 2
    for fname, digest in manifest.outputs.items():
        data = (tmp_path / fname).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    density = (tmp_path / "tiny_density_sigma3_gamma1.csv").read_text().splitlines()
    assert density[0] == "t,x,rho,re_psi,im_psi"
    assert len(density) == 1 + 2 * TINY.x_count
    metrics = (tmp_path / "tiny_metrics_sigma3_gamma1.csv").read_text().splitlines()
    assert metrics[0] == "t,G_psi,sigma_psi,G_rho,sigma_rho,imag_residual"
    man = json.loads((tmp_path / "tiny_manifest.json").read_text())
    assert man["tool_version"]
    assert man["scenario"]["name"] == "tiny"
    assert man["quadrature_settings"] == {
        "oversample": free_packets._OVERSAMPLE,
        "tail_eps": free_packets._TAIL_EPS,
        "momentum_window_factor": field_packets._WINDOW_FACTOR,
    }


def test_run_deterministic(tmp_path):
    m1 = run(TINY, out_dir=tmp_path / "a")
    m2 = run(TINY, out_dir=tmp_path / "b")
    for fname in m1.outputs:
        assert m1.outputs[fname] == m2.outputs[fname]
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_each_case_is_built_once_when_its_scenario_is_built(tmp_path, monkeypatch):
    # run reads the packets its Scenario built and builds none: fig3's four
    # closed-free cases were once built twice, at resolve_scenario and in run
    cases = []
    build = scenarios.packet_for
    monkeypatch.setattr(scenarios, "packet_for",
                        lambda case, *args: cases.append(case) or build(case, *args))
    fig3 = resolve_scenario("fig3")
    run(fig3, out_dir=tmp_path / "fig3")
    assert cases == list(fig3.cases) and len(cases) == 4
    cases.clear()
    mixed = load_config(Path(__file__).with_name("mixed_families.ini"))
    for scn in mixed:
        run(scn, out_dir=tmp_path / "mixed")
    assert cases == [case for scn in mixed for case in scn.cases]


def test_a_second_run_reuses_the_packet_and_writes_the_same_bytes(tmp_path, monkeypatch):
    # the field packet, its mode sum and its node-mode memo (which the
    # spectrum reads) serve both runs: one basis, and the first run's bytes
    bases = []
    basis = packets.field_mode_basis
    monkeypatch.setattr(packets, "field_mode_basis",
                        lambda *args: bases.append(args) or basis(*args))
    scn = Scenario(name="again", family="uniform-field",
                   cases=({"sigma0": 3.0, "gamma0": 1.0, "force": 0.1},),
                   t_list=(-2.0, 0.0, 2.0), x_min=-20.0, x_max=40.0, x_count=301,
                   outputs=("density", "spectrum"), normalization="peak-normalized",
                   p_min=-5.0, p_max=5.0, p_count=101)
    first = run(scn, out_dir=tmp_path / "a")
    second = run(scn, out_dir=tmp_path / "b")
    assert len(bases) == 1
    assert len(first.outputs) == 2 and first.outputs == second.outputs
    for fname in first.outputs:
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_run_accepts_only_one_thread(tmp_path):
    # cases run serially; the keyword stays for the benchmark worker's threads=1
    with pytest.raises(ScenarioError, match="threads must be 1"):
        run(TINY, tmp_path, threads=2)
    assert not list(tmp_path.iterdir())


def test_widths_reuse_the_metrics_slices(tmp_path, monkeypatch):
    # a 2-time run with outputs metrics, widths builds each slice once, and
    # its widths are the sigma columns of its metrics, byte for byte
    calls = []
    slice_at = packets.Packet.slice
    monkeypatch.setattr(packets.Packet, "slice",
                        lambda pk, t, xs: calls.append(t) or slice_at(pk, t, xs))
    scn = dataclasses.replace(TINY, name="w", outputs=("metrics", "widths"))
    run(scn, out_dir=tmp_path)
    assert calls == [0.0, 2.0]
    metrics, widths = ([ln.split(",") for ln in
                        (tmp_path / f"w_{kind}_sigma3_gamma1.csv").read_text().splitlines()[1:]]
                       for kind in ("metrics", "widths"))
    assert widths == [[m[0], m[4], m[2]] for m in metrics]


def test_one_slice_per_case_and_time_serves_every_output(tmp_path, monkeypatch):
    # density, metrics, widths and spectrum of two field cases at three
    # times: one slice and one fit of each kind per (case, t), and no more
    # D_nu points than the density alone takes (the spectrum reads the
    # slices' node modes); the density alone makes no fit
    scn = Scenario(name="one", family="uniform-field",
                   cases=({"sigma0": 3.0, "gamma0": 1.0, "force": 0.1},
                          {"sigma0": 2.0, "gamma0": 1.5, "force": 0.1}),
                   t_list=(-2.0, 0.0, 2.0), x_min=-20.0, x_max=40.0, x_count=301,
                   outputs=("density", "metrics", "widths", "spectrum"),
                   normalization="peak-normalized", p_min=-5.0, p_max=5.0, p_count=101)
    slices, points, fits = [], [], []
    slice_at, pcf = packets.Packet.slice, field_packets.pcf_d
    fit_psi, fit_rho = packets.gauss_similarity_psi, packets.gauss_similarity_rho
    monkeypatch.setattr(packets.Packet, "slice",
                        lambda pk, t, xs: slices.append((pk.label, t)) or slice_at(pk, t, xs))
    monkeypatch.setattr(field_packets, "pcf_d",
                        lambda nu, z, **kw: points.append(np.size(z)) or pcf(nu, z, **kw))
    monkeypatch.setattr(packets, "gauss_similarity_psi",
                        lambda sl, *args: fits.append(("psi", sl.t)) or fit_psi(sl, *args))
    monkeypatch.setattr(packets, "gauss_similarity_rho",
                        lambda dens, *args: fits.append(("rho", dens.t)) or fit_rho(dens, *args))
    run(dataclasses.replace(scn, outputs=("density",)), out_dir=tmp_path / "density")
    density_points = sum(points)
    assert fits == []
    slices.clear()
    points.clear()
    assert len(run(scn, out_dir=tmp_path / "all").outputs) == 8
    assert sorted(slices) == sorted({(label, t) for label in ("sigma3_gamma1_F0.1",
                                                             "sigma2_gamma1.5_F0.1")
                                     for t in scn.t_list})
    assert sorted(fits) == sorted((kind, t) for kind in ("psi", "rho")
                                  for _ in scn.cases for t in scn.t_list)
    assert sum(points) == density_points


def test_outputs_that_would_share_a_file_are_config_errors(tmp_path, capsys):
    # labels leave out v0, so these two cases once wrote one metrics file,
    # the second case's rows only, with exit code 0
    base = dict(name="dup", family="closed-free", t_list=(0.0,), x_min=-18.0,
                x_max=18.0, x_count=301, outputs=("metrics",))
    with pytest.raises(ScenarioError, match="dup_metrics_ctheta2.csv"):
        Scenario(**base, cases=({"vartheta": 2.0, "v0": 0.25}, {"vartheta": 2.0, "v0": 0.5}))
    with pytest.raises(ScenarioError, match="dup_metrics_ctheta2.csv"):
        Scenario(**{**base, "outputs": ("metrics", "widths", "metrics")},
                 cases=({"vartheta": 2.0, "v0": 0.25},))
    out = tmp_path / "o"
    cfg = Path(__file__).with_name("duplicate_labels.ini")
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: two outputs would write dup_metrics_ctheta2.csv")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("data,reason", [
    (Path(__file__).with_name("duplicate_section.ini").read_bytes(),
     "section 'twice' already exists"),
    (b"family = gauss-free\ncases = sigma0=3, gamma0=1\nt_list = 0\n",
     "no section headers"),
    (b"[s]\nfamily = gauss-free\ncases = sigma0=3, gamma0=1\nt_list = 0\n# \xff\n",
     "can't decode byte 0xff"),
], ids=["duplicate-section", "no-section-header", "not-utf-8"])
def test_malformed_config_files_exit_as_config_errors(tmp_path, capsys, data, reason):
    # each once ended as "internal error" with exit code 3
    cfg = tmp_path / "bad.ini"
    cfg.write_bytes(data)
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and reason in err
    assert not list(out.glob("*.csv"))


def test_mixed_families_write_the_bytes_of_single_family_runs(tmp_path):
    # each case follows its own family in every output, x0 included
    cases = ({"family": "closed-free", "vartheta": 2.0, "v0": 0.25, "x0": 1.0},
             {"family": "gauss-free", "sigma0": 3.0, "gamma0": 1.5, "x0": -1.0},
             {"family": "uniform-field", "sigma0": 3.0, "gamma0": 1.0, "force": 0.1})
    mixed = dataclasses.replace(
        TINY, name="mix", family="closed-free", cases=cases, phase_t_max=2.0,
        outputs=("density", "metrics", "spectrum", "phase", "widths"),
        p_min=-4.0, p_max=4.0, p_count=101)
    m = run(mixed, out_dir=tmp_path / "mixed")
    assert len(m.outputs) == 15
    for case in cases:
        family = case["family"]
        alone = dataclasses.replace(
            mixed, family=family,
            cases=({k: v for k, v in case.items() if k != "family"},))
        one = run(alone, out_dir=tmp_path / family)
        assert len(one.outputs) == 5
        for fname, digest in one.outputs.items():
            assert m.outputs[fname] == digest, fname


def test_unknown_case_family_is_a_scenario_error():
    # the Scenario checks its cases when it is built, before any run
    with pytest.raises(ScenarioError, match="warp"):
        dataclasses.replace(TINY, cases=({"family": "warp", "sigma0": 3.0,
                                          "gamma0": 1.0},))


def test_a_bad_case_in_a_later_section_stops_every_section(tmp_path, capsys):
    cfg = tmp_path / "two.ini"
    cfg.write_text(CONFIG_TEXT + "\n[later]\nfamily = gauss-free\n"
                   "cases = sigma0=3, gamma0=1; sigma0=3, gamma1=1\nt_list = 0\n")
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: case {") and "unknown key 'gamma1'" in err
    assert not out.exists()


@pytest.mark.parametrize("family,case,reason", [
    ("gauss-free", "sigma0=3", "missing key 'gamma0'"),
    ("closed-free", "vartheta=-1", "vartheta must be positive"),
    # the case as written: its t_max was once left out of the message
    ("closed-free", "vartheta=-1, t_max=5", "'t_max': 5.0"),
    ("gauss-free", "sigma0=3, gamma0=0.5", "gamma0 must be >= 1"),
    ("uniform-field", "sigma0=3, gamma0=0.5, force=0.1", "gamma0 must be >= 1"),
    ("gauss-free", "sigma0=nan, gamma0=1", "sigma0 must be finite"),
    ("closed-free", "vartheta=2, v0=nan", "v0 must be finite"),
    ("uniform-field", "sigma0=3, gamma0=nan, force=0.1", "gamma0 must be finite"),
    ("gauss-free", "sigma0=3, gamma0=1, x0=inf", "x0 must be finite"),
    # a misspelt key once left x0 at its default, and a negative t_max wrote
    # a phase file with no rows, both with exit code 0
    ("gauss-free", "sigma0=3, gamma0=1, xo=5", "unknown key 'xo'"),
    ("closed-free", "vartheta=2, v0=0.25, t_max=-5", "t_max must be >= 0"),
    ("closed-free", "vartheta=2, v0=0.25, t_max=inf", "t_max must be finite"),
], ids=["no-gamma0", "negative-vartheta", "negative-vartheta-with-t-max",
        "gauss-gamma0-below-1", "field-gamma0-below-1",
        "gauss-sigma0-nan", "closed-v0-nan", "field-gamma0-nan", "gauss-x0-inf",
        "misspelt-key", "negative-t-max", "infinite-t-max"])
def test_cli_case_errors_exit_as_config_errors(tmp_path, capsys, family, case, reason):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[bad]\nfamily = {family}\ncases = {case}\nt_list = 0\n"
                   "x_min = -18\nx_max = 18\nx_count = 301\n")
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: case {") and reason in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("family,case,extra,where", [
    ("uniform-field", "sigma0=3, gamma0=1, force=0.1, x0=500", "", "x = 500 at t = 0"),
    ("closed-free", "vartheta=2, v0=0.25, x0=-30", "outputs = metrics", "x = -30 at t = 0"),
    ("gauss-free", "sigma0=3, gamma0=10", "t_list = 0, 30\noutputs = widths",
     "at t = 30"),
], ids=["field-density", "closed-metrics", "gauss-widths"])
def test_cli_packet_off_the_grid_is_a_config_error(tmp_path, capsys, family, case,
                                                     extra, where):
    # the x-grid [-18, 18] does not hold the classical position at an output
    # time, so the grid would sample nothing of the packet
    cfg = tmp_path / "off.ini"
    cfg.write_text(f"[off]\nfamily = {family}\ncases = {case}\n"
                   + (extra if "t_list" in extra else f"t_list = 0\n{extra}")
                   + "\nx_min = -18\nx_max = 18\nx_count = 301\n")
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: case ") and where in err
    assert "outside the grid [-18, 18]" in err
    assert not list(out.glob("*.csv"))


def test_a_case_t_max_ends_only_its_phase_trace(tmp_path):
    # a case's t_max also set the horizon of its momentum sum, so t_max = 0
    # aliased the t = 100 slice (charge 1.19 on the grid, 0.108 without it)
    # with exit code 0; now the density bytes do not depend on it
    short, full = load_config(Path(__file__).with_name("short_t_max.ini"))
    assert short.cases[0]["t_max"] == 0.0 and "t_max" not in full.cases[0]
    texts = []
    for scn in (short, full):
        fname, = run(scn, out_dir=tmp_path).outputs
        texts.append((tmp_path / fname).read_bytes())
    assert texts[0] == texts[1]


def test_phase_and_spectrum_outputs_need_no_grid(tmp_path):
    scn = dataclasses.replace(TINY, cases=({"sigma0": 3.0, "gamma0": 1.0, "x0": 500.0},),
                              outputs=("spectrum", "phase"), phase_t_max=1.0)
    assert len(run(scn, out_dir=tmp_path).outputs) == 2


def test_unit_charge_normalization(tmp_path):
    scn = Scenario(name="n", family="gauss-free",
                   cases=({"sigma0": 3.0, "gamma0": 1.0},),
                   t_list=(0.0,), x_min=-20.0, x_max=20.0, x_count=401,
                   outputs=("density",), normalization="unit-charge")
    run(scn, out_dir=tmp_path)
    rows = np.loadtxt(tmp_path / "n_density_sigma3_gamma1.csv",
                      delimiter=",", skiprows=1)
    total = np.trapezoid(rows[:, 2], rows[:, 1])
    assert abs(total - 1.0) < 1e-9


CONFIG_TEXT = """
[mini]
family = gauss-free
cases = sigma0=3, gamma0=1
t_list = 0, 2
x_min = -18
x_max = 18
x_count = 301
outputs = widths
"""


def test_load_config_roundtrip(tmp_path):
    cfg = tmp_path / "scen.ini"
    cfg.write_text(CONFIG_TEXT)
    scenarios = load_config(cfg)
    assert len(scenarios) == 1
    scn = scenarios[0]
    assert scn.name == "mini" and scn.x_count == 301
    manifest = run(scn, out_dir=tmp_path)
    widths = (tmp_path / "mini_widths_sigma3_gamma1.csv").read_text().splitlines()
    assert widths[0] == "t,sigma_rho,sigma_psi"
    assert len(widths) == 3


def test_load_config_reads_a_per_case_family():
    in_code = dataclasses.replace(
        TINY, name="mixed", family="closed-free",
        cases=({"vartheta": 2.0, "v0": 0.25},
               {"family": "gauss-free", "sigma0": 3.0, "gamma0": 1.5},
               {"family": "uniform-field", "sigma0": 3.0, "gamma0": 1.0, "force": 0.1}))
    assert load_config(Path(__file__).with_name("mixed_families.ini")) == [in_code]


def test_non_numeric_case_values_are_config_errors(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[s]\nfamily = gauss-free\ncases = sigma0=three, gamma0=1\n"
                   "t_list = 0\n")
    with pytest.raises(ScenarioError, match=r"\[s\].*three"):
        load_config(cfg)
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("config error: [s]")


def test_negative_force_packet_stays_gaussian_at_t0(tmp_path):
    # F = -0.1 once wrote G_rho(0) = 0.481 (imag_residual 0.481) with exit
    # code 0: its modes were not positive frequency
    cfg = tmp_path / "neg.ini"
    cfg.write_text("[neg]\nfamily = uniform-field\n"
                   "cases = sigma0=3, gamma0=1, force=-0.1, x0=0\nt_list = 0, 4\n"
                   "x_min = -18\nx_max = 18\nx_count = 301\noutputs = metrics\n")
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "neg_metrics_sigma3_gamma1_F-0.1.csv", delimiter=",",
                      skiprows=1)
    assert rows[0, 0] == 0.0 and rows[0, 3] > 0.99 and rows[0, 5] < 1e-6


def test_weak_force_is_a_numeric_error(tmp_path, capsys):
    # nu = -1/2 -+ 500i is past the double range of the D_nu fold; x0 = 0
    # keeps the worldline on the grid (the vertex 1/F = 1000 is not)
    cfg = tmp_path / "weak.ini"
    cfg.write_text("[weak]\nfamily = uniform-field\n"
                   "cases = sigma0=3, gamma0=1, force=0.001, x0=0\nt_list = 0\n"
                   "x_min = -18\nx_max = 18\nx_count = 301\n")
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error in weak:") and "overflows" in err
    assert not list(out.glob("*.csv"))


def test_a_later_case_that_fails_leaves_no_csv_of_an_earlier_one(tmp_path, capsys):
    # every case's outputs are computed before any file is written: the
    # F = 0.1 case computes, the F = 1e-200 case after it overflows
    out = tmp_path / "o"
    cfg = Path(__file__).with_name("late_failure.ini")
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("numeric error in late-failure:")
    assert not list(out.glob("*"))


def test_under_resolved_grid_is_a_numeric_error(tmp_path, capsys):
    # the fits' BracketError once left run untyped: exit code 3, "internal error"
    out = tmp_path / "o"
    cfg = Path(__file__).with_name("under_resolved.ini")
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric error in under-resolved: no interior maximum")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("error,code", [
    (BracketError("no interior maximum"), 2),
    (SpecFunAccuracyError("overflows"), 2),
    (ScenarioError("bad case"), 1),
], ids=["bracket", "specfun-accuracy", "scenario"])
def test_errors_from_run_map_to_exit_codes(tmp_path, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run", fail)
    assert cli_main(["run", "--scenario", "fig1", "--out-dir", str(tmp_path)]) == code


def test_weak_force_above_the_fold_limit_fails_fast(tmp_path, capsys):
    # nu = -1/2 -+ 416.67i: the march refuses the order at its first ray; the
    # band integral once summed 2^19 + 1 nodes for each of ~400 points there
    cfg = tmp_path / "weak.ini"
    cfg.write_text("[weak]\nfamily = uniform-field\n"
                   "cases = sigma0=3, gamma0=1, force=0.0012, x0=0\nt_list = 0\n"
                   "x_min = -18\nx_max = 18\nx_count = 301\n")
    out = tmp_path / "o"
    started = time.monotonic()
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert time.monotonic() - started < 10.0
    assert capsys.readouterr().err.startswith("numeric error in weak:")
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("force", [0.0099, 0.005, 0.002, 0.0012])
def test_forces_below_the_march_bound_fail_fast(tmp_path, capsys, force):
    # from just below F = 0.01 down to the fold limit the D_nu march refuses
    # the modes: exit code 2 and no CSV, within seconds
    cfg = tmp_path / "weak.ini"
    cfg.write_text("[weak]\nfamily = uniform-field\n"
                   f"cases = sigma0=3, gamma0=1, force={force}, x0=0\nt_list = 0, 2\n"
                   "x_min = -18\nx_max = 18\nx_count = 301\noutputs = density, metrics\n")
    out = tmp_path / "o"
    started = time.monotonic()
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert time.monotonic() - started < 5.0
    assert capsys.readouterr().err.startswith("numeric error in weak:")
    assert not list(out.glob("*.csv"))


def test_weak_field_config_runs_clean(tmp_path, capsys):
    # tests/weak_field.ini: F = 0.01 runs with no numpy warning (its modes
    # were garbage past t = 0, with exit code 0), F = 0.005 is refused
    cfg = str(Path(__file__).with_name("weak_field.ini"))
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli_main(["run", "--config", cfg, "--scenario", "weak-field",
                         "--out-dir", str(out / "weak")]) == 0
        assert len(list((out / "weak").glob("*.csv"))) == 2
        assert cli_main(["run", "--config", cfg, "--scenario", "too-weak",
                         "--out-dir", str(out / "too")]) == 2
    assert "numeric error in too-weak:" in capsys.readouterr().err
    assert not list((out / "too").glob("*.csv"))


def test_field_runs_take_no_d_nu_point_from_mpmath(monkeypatch, tmp_path):
    # fig7, fig8, fig9 and F = 0.01 (the router's longest march, |nu| =
    # 50.02) take every D_nu point from the series and the march: the
    # per-point mpmath fallback costs milliseconds a point
    def no_mpmath_pcfd(nu, z, derivative=False):
        raise AssertionError(f"mpmath.pcfd called for nu={nu}")

    monkeypatch.setattr(specfun, "_mpmath_pcfd", no_mpmath_pcfd)
    (weak,) = [scn for scn in load_config(Path(__file__).with_name("weak_field.ini"))
               if scn.name == "weak-field"]
    for scn in [resolve_scenario(name) for name in ("fig7", "fig8", "fig9")] + [weak]:
        assert run(scn, tmp_path / scn.name).outputs


def test_off_grid_case_fails_before_its_basis_is_built(tmp_path, capsys):
    # the worldline check needs no mode sum: a case off the grid is a config
    # error, not the numeric error that building its weak-force basis raises
    cfg = tmp_path / "off.ini"
    cfg.write_text("[off]\nfamily = uniform-field\n"
                   "cases = sigma0=3, gamma0=1, force=0.002, x0=500\nt_list = 0\n"
                   "x_min = -18\nx_max = 18\nx_count = 301\n")
    out = tmp_path / "o"
    started = time.monotonic()
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert time.monotonic() - started < 5.0
    assert "outside the grid [-18, 18]" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("grid,reason", [
    ("x_min = 30\nx_max = -30", "x_min must be < x_max"),
    ("p_min = 5\np_max = -5", "p_min must be < p_max"),
    ("p_count = 1", "p_count must be >= 2"),
    ("phase_dt = 0", "phase_dt must be positive"),
    ("phase_dt = -0.25", "phase_dt must be positive"),
    ("phase_t_max = -1", "phase_t_max must be >= 0"),
    ("t_list = 0, nan", "t_list values must be finite"),
    ("x_min = -inf", "grid bounds must be finite"),
    ("phase_t_max = inf", "grid bounds must be finite"),
], ids=["x-reversed", "p-reversed", "one-p", "zero-dt", "negative-dt", "negative-t-max",
        "t-nan", "x-min-minus-inf", "infinite-t-max"])
def test_cli_grid_errors_exit_as_config_errors(tmp_path, capsys, grid, reason):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[bad]\nfamily = gauss-free\ncases = sigma0=3, gamma0=1\n"
                   + ("" if "t_list" in grid else "t_list = 0\n")
                   + f"outputs = density, spectrum, phase\nx_count = 301\n{grid}\n")
    out = tmp_path / "o"
    assert cli_main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and reason in err
    assert not list(out.glob("*.csv"))


def test_load_config_unknown_key(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[s]\nfamily = gauss-free\ncases = sigma0=1, gamma0=1\n"
                   "t_list = 0\nwarp_factor = 9\n")
    with pytest.raises(ScenarioError, match=r"\[s\].*warp_factor"):
        load_config(cfg)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_cli_list_and_exit_codes(tmp_path, capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "fig9" in out

    assert cli_main(["run", "--scenario", "does-not-exist"]) == 1
    assert cli_main(["run"]) == 1

    cfg = tmp_path / "scen.ini"
    cfg.write_text(CONFIG_TEXT)
    code = cli_main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "mini_widths_sigma3_gamma1.csv").exists()

    assert cli_main(["run", "--config", str(cfg), "--scenario", "absent"]) == 1


@pytest.mark.parametrize("argv,code,usage", [
    (["run", "--scenario", "fig3", "--bogus"], 1, "usage: relwave run [-h]"),
    ([], 1, "usage: relwave [-h]"),
    (["run", "--scenario", "fig3", "--threads", "2"], 1, "usage: relwave run [-h]"),
    (["run", "--help"], 0, None),
    # the unknown option comes before the command: the root's usage line
    (["--bogus", "list"], 1, "usage: relwave [-h] {list,run,verify} ..."),
], ids=["unknown-option", "no-command", "threads", "help", "unknown-option-before-command"])
def test_cli_usage_errors_are_config_errors(capsys, argv, code, usage):
    # argparse exits 2 on a usage error, the code of a numeric error
    assert cli_main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err.startswith(usage)
    else:
        assert "--out-dir" in captured.out and "--threads" not in captured.out


def test_an_unknown_option_shows_its_commands_usage_line(capsys):
    # the root parser once reported it: "usage: relwave [-h] {list,run,verify} ..."
    assert cli_main(["run", "--scenario", "fig3", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: relwave run [-h]")
    assert "relwave run: error: unrecognized arguments: --bogus" in err
    assert cli_main(["list", "--bogus"]) == 1
    assert capsys.readouterr().err.startswith("usage: relwave list [-h]")


def test_an_out_dir_that_cannot_be_made_is_a_config_error(tmp_path, capsys):
    # a file in its place once exited 3 as "internal error: [Errno 17] File exists"
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        assert cli_main(["run", "--scenario", "fig3", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out) in err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_fig7_lowerleft_spectra_peak_normalized(tmp_path):
    scn = resolve_scenario("fig7-lowerleft")
    manifest = run(scn, out_dir=tmp_path)
    assert len(manifest.outputs) == 3
    fname = "fig7-lowerleft_spectrum_sigma0.3_gamma1_F0.1.csv"
    rows = np.loadtxt(tmp_path / fname, delimiter=",", skiprows=1)
    at_t0 = rows[rows[:, 0] == 0.0]
    assert abs(at_t0[:, 2].max() - 1.0) < 1e-12


def test_csv_rows_match_the_per_value_format(tmp_path):
    # column blocks (a scalar once per block, a grid shared by blocks once
    # per file, each other row by one %-format) write the bytes that
    # f"{v:.17g}" per value did
    rows = [(-0.0, 5e-324, 1e308), (3.0, np.float64(2.0), -7),
            (np.float64(-0.0), 0.1, np.float64(1.0 / 3.0)),
            (np.float64(5e-324), np.float64(-1e308), 1e16),
            (2.5, np.float64(123456789.0), float(2**60))]
    grid = np.array([0.1, -0.0, 1.0 / 3.0])
    blocks = [tuple(zip(*rows[:3])), (np.float64(-0.0), grid, np.array(rows[3])),
              (7, grid, np.array(rows[4]))]
    path = tmp_path / "rows.csv"
    scenarios._write_csv(path, "a,b,c", blocks)
    expected_rows = rows[:3] + list(zip([-0.0] * 3, grid, rows[3])) \
        + list(zip([7] * 3, grid, rows[4]))
    expected = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                   for row in expected_rows)
    assert path.read_text() == expected
