import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _write(path, text):
    path.parent.mkdir(exist_ok=True)
    path.write_text(text)


def test_diff_reports_each_file_against_its_column_scale(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, rho, g in ((a, "2", "0.5"), (b, "2.0000001", "0.5000001")):
        _write(d / "same.csv", "t,x\n0,1\n")
        # rho's scale is its max |value|, G_rho's at least one
        _write(d / "moved.csv", f"t,rho,G_rho\n0,{rho},{g}\n1,4,0.25\n")
    assert compare_outputs.diff(a, b) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "moved.csv: 1e-07 of the scale of G_rho"
    assert out[1] == "same.csv: identical"
    assert out[-1] == "2 common files: 1 identical, worst 1e-07 (moved.csv, G_rho)"


def test_diff_fails_when_the_file_sets_or_shapes_differ(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    _write(a / "one.csv", "t\n0\n")
    _write(b / "one.csv", "t\n0\n")
    _write(a / "two.csv", "t\n0\n")
    assert compare_outputs.diff(a, b) == 1
    assert "two.csv: only in" in capsys.readouterr().out
    _write(b / "two.csv", "t\n0\n1\n")
    assert compare_outputs.diff(a, b) == 1
    assert "two.csv: columns or rows differ" in capsys.readouterr().out
