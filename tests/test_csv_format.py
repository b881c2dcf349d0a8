import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relwave import csv_format, scenarios

# a NaN or an overflow inside the formatter would only warn
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _formatted(values):
    """The formatter's text of each value, 2^16 values per call."""
    values = np.asarray(values, dtype=float)
    out = []
    for start in range(0, len(values), 1 << 16):
        text = csv_format.format_g17(values[start:start + (1 << 16)]).view(np.uint8)
        text[:, 31] = ord("\n")
        out += text.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
    return out


def _assert_matches(values):
    values = np.asarray(values, dtype=float)
    got = _formatted(values)
    assert len(got) == len(values)
    bad = [(v, g) for v, g in zip(values.tolist(), got) if g != "%.17g" % v]
    assert not bad, bad[:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_format_g17_matches_the_per_value_format(values):
    # st.floats() draws NaN, +-inf, subnormals and -0.0 too
    _assert_matches(values)


def test_format_g17_matches_on_random_bit_patterns():
    bits = np.random.default_rng(19).integers(0, 2**64, 10**6, dtype=np.uint64)
    _assert_matches(bits.view(np.float64))


def test_format_g17_matches_on_the_edges():
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308,
             math.nan, math.inf, -math.inf, 0.5, 2.5, 1e22, 1e23,
             # the 1e-5/1e-4 and 1e16/1e17 switches between the two layouts
             9.9999999999999991e-06, 1e-5, 1.0000000000000001e-05, 1e-4, 0.0001234,
             9999999999999998.0, 1e16, 1.0000000000000002e16, 99999999999999984.0, 1e17,
             12345678901234567.0, 1000.0, 100.5, 0.001]
    for lo, hi in (csv_format._FAST_RANGE, (1e-4, 1e17)):
        for x in (lo, hi):
            edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    for k in range(-300, 301):
        x = float(f"1e{k}")
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    edges = np.array(edges)
    _assert_matches(np.concatenate([edges, -edges]))


def test_format_g17_falls_back_at_a_rounding_tie():
    # n + 1/4 and n + 3/4 for 2^50 <= n < 2^51 have 18 digits ending in 5:
    # %.17g rounds them to even, which a round-half-up would miss for 3/4
    n = np.random.default_rng(7).integers(2**50, 2**51, 50).astype(float)
    ties = np.concatenate([n + 0.25, n + 0.75])
    assert all(len(f"{v:.18g}") == 19 and f"{v:.18g}".endswith("5") for v in ties)
    _assert_matches(np.concatenate([ties, -ties]))


def _expected(header, rows):
    return header + "\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                   for row in rows)


@pytest.mark.parametrize("rows", [100, 1000])
def test_write_csv_on_both_sides_of_the_cutoff(tmp_path, rows):
    # 3 blocks of 4 columns: 1,200 values take the per-value route, 12,000
    # the formatter; NaN, +-inf and -0.0 sit in the data columns
    assert 12 * 100 < scenarios._FAST_FILE_VALUES <= 12 * 1000
    rng = np.random.default_rng(rows)
    grid = np.linspace(-30.0, 45.0, rows)
    blocks, expected_rows = [], []
    for t in (-12.0, 0.0, 15.25):
        a = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
        b = rng.standard_normal(rows)
        a[:4] = [math.nan, math.inf, -math.inf, -0.0]
        b[-3:] = [-0.0, math.nan, 5e-324]
        blocks.append((t, grid, a, b))
        expected_rows += list(zip([t] * rows, grid, a, b))
    path = tmp_path / "out.csv"
    digest = scenarios._write_csv(path, "t,x,a,b", blocks)
    text = _expected("t,x,a,b", expected_rows)
    assert path.read_text() == text
    assert digest == hashlib.sha256(text.encode()).hexdigest()


_PROBE = """
import sys, tempfile
sys.path.insert(0, sys.argv[1])
from relwave.scenarios import Scenario, run
scn = Scenario(name="probe", family="gauss-free", cases=({"sigma0": 3.0, "gamma0": 1.0},),
               t_list=(0.0,), x_min=-18.0, x_max=18.0, x_count=int(sys.argv[2]),
               outputs=("metrics", "widths", "density"))
with tempfile.TemporaryDirectory() as out:
    run(scn, out)
print("relwave.csv_format" in sys.modules)
"""


@pytest.mark.parametrize("x_count, loaded", [(301, False), (1001, True)])
def test_only_runs_that_write_a_large_file_load_the_formatter(x_count, loaded):
    # a run whose files are all below the cutoff neither compiles nor keeps
    # the formatter and its tables (the density here has 5 x_count values)
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _PROBE, src, str(x_count)], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [str(loaded)]
