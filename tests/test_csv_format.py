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


def _assert_file_holds(path, text):
    # line by line first, reporting the first differing line: pytest's diff
    # of two long strings takes minutes.  The full comparison is kept, as a
    # plain boolean so that its failure is not diffed either
    got, want = path.read_text().splitlines(), text.splitlines()
    assert next(((i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w), None) is None
    assert len(got) == len(want)
    same = path.read_bytes() == text.encode()
    assert same


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
    _assert_file_holds(path, text)
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
from relwave.csv_format import _tables
print(_tables.cache_info().currsize > 0)
"""


@pytest.mark.parametrize("x_count, loaded", [(301, False), (1001, True)])
def test_only_runs_that_write_a_large_file_load_the_formatter(x_count, loaded):
    # a run whose files are all below the cutoff neither builds nor keeps
    # the formatter's tables (the density here has 5 x_count values); the
    # module itself is imported with relwave.scenarios, so that a run loads
    # no module
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", _PROBE, src, str(x_count)], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == [str(loaded)]


def _reuse_blocks(rows):
    """Blocks over the cutoff that exercise the writer's column reuse: one
    grid object shared by three blocks (NaN, +-inf, -0.0 and 5e-324 in it),
    scalar t columns, an equal-valued but distinct copy of the grid, the grid
    object in another column place, and a shorter last block."""
    rng = np.random.default_rng(7)
    grid = np.linspace(-30.0, 45.0, rows)
    grid[:5] = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
    data = [rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
            for _ in range(4)]
    return grid, [(-0.0, grid, data[0]),
                  (5e-324, grid, grid.copy()),
                  (math.nan, data[1], grid),
                  (math.inf, grid, data[2]),
                  (-2.5, grid[:rows // 3].copy(), data[3][:rows // 3])]


def test_write_csv_reuses_columns_byte_for_byte(tmp_path):
    # a reused column text writes the bytes and sha256 of one "%.17g" per value
    rows = 1500
    _, blocks = _reuse_blocks(rows)
    assert sum(len(b[1]) * 3 for b in blocks) >= scenarios._FAST_FILE_VALUES
    expected_rows = [row for t, *cols in blocks for row in zip([t] * len(cols[0]), *cols)]
    path = tmp_path / "reuse.csv"
    digest = scenarios._write_csv(path, "t,x,a", blocks)
    text = _expected("t,x,a", expected_rows)
    _assert_file_holds(path, text)
    assert digest == hashlib.sha256(text.encode()).hexdigest()


def test_write_csv_formats_each_shared_column_once(tmp_path, monkeypatch):
    # density-like blocks that share one grid format it once per file; on the
    # edge blocks a column is reused only where the previous block had the
    # same object in the same place, and the scalar t columns take the
    # per-value format.  No format_g17 call exceeds _CHUNK_VALUES values
    rows = 5000
    sizes = []
    fmt = scenarios.format_g17
    monkeypatch.setattr(scenarios, "format_g17", lambda v: sizes.append(len(v)) or fmt(v))
    grid, blocks = _reuse_blocks(rows)
    density = [(t, grid, np.full(rows, t)) for t in (0.0, 4.0, 8.0)]
    scenarios._write_csv(tmp_path / "density.csv", "t,x,rho", density)
    assert sum(sizes) == rows + 3 * rows
    sizes.clear()
    scenarios._write_csv(tmp_path / "edges.csv", "t,x,a", blocks)
    # x: the grid in block 1, kept in block 2, block 3's data, the grid again
    # in block 4 (block 3 broke the run) and block 5's short copy; a: every
    # block's own array, the grid of block 3 included
    x_values = 3 * rows + rows // 3
    a_values = 4 * rows + rows // 3
    assert sum(sizes) == x_values + a_values
    assert max(sizes) <= scenarios._CHUNK_VALUES
