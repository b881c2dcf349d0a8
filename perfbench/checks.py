"""Output checks: one verdict per (case, output) CSV written by ``run()``.

Every seed is checked for invariants: finite values, the requested times and
grid, Gaussianity scores in (0, 1], widths > 0, and the requested
normalization.  At the default seed the values are also compared with a
reference recorded from an earlier commit, to 1e-6 of each column's scale
(the closed-form-vs-quadrature tolerance of acceptance criterion 1), so an
algorithm swap that changes values by ~1e-9 passes and a real error does not.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REF_TOL = 1e-6
REF_ROWS = 200  # rows kept per file in a reference; long files are strided
# overlaps are fractions of one, so one is their scale even when a column
# holds only rounding noise (imag_residual of a positive density)
_UNIT_SCALE = {"G_psi", "G_rho", "imag_residual"}
_NORM_TOL = 1e-9
_SCORE_SLACK = 1e-9


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def kind_of(scn, fname: str) -> str:
    """Output kind of a CSV named ``<scenario>_<kind>_<case label>.csv``."""
    return fname[len(scn.name) + 1:].split("_", 1)[0]


def _per_t(cols, ts):
    for t in ts:
        yield t, cols["t"] == t


def check_invariants(scn, case: dict, kind: str, header: list[str],
                     data: np.ndarray) -> str | None:
    """None if the output satisfies the invariants of its kind, else why not."""
    if not np.all(np.isfinite(data)):
        return "non-finite value"
    cols = dict(zip(header, data.T))
    ts = np.asarray(scn.t_list, dtype=float)
    if kind == "phase":
        t_max = case.get("t_max", scn.phase_t_max)
        want = np.arange(0.0, t_max + 0.5 * scn.phase_dt, scn.phase_dt)
        if len(cols["t"]) != len(want) or np.any(cols["t"] != want):
            return "phase times differ from the requested grid"
        scale = max(1.0, float(np.max(np.abs(cols["phi"]))))
        if np.max(np.abs(cols["offset"] - (cols["phi"] - cols["s_cl_over_hbar"]))) \
                > _NORM_TOL * scale:
            return "offset != phi - S_cl/hbar"
        return None
    if not np.array_equal(np.unique(cols["t"]), np.unique(ts)):
        return "times differ from t_list"
    if kind in ("metrics", "widths"):
        for key in ("sigma_psi", "sigma_rho"):
            if np.any(cols[key] <= 0.0):
                return f"{key} not > 0"
        for key in ("G_psi", "G_rho"):
            if key in cols and (np.any(cols[key] <= 0.0)
                                or np.any(cols[key] > 1.0 + _SCORE_SLACK)):
                return f"{key} outside (0, 1]"
        if "imag_residual" in cols and np.any(cols["imag_residual"] < 0.0):
            return "imag_residual < 0"
        return None
    if kind == "density":
        xs = np.linspace(scn.x_min, scn.x_max, scn.x_count)
        for t, sel in _per_t(cols, ts):
            x, rho = cols["x"][sel], cols["rho"][sel]
            if len(x) != len(xs) or np.max(np.abs(x - xs)) > 1e-12 * np.max(np.abs(xs)):
                return f"t={t}: x grid differs from the requested grid"
            if scn.normalization == "unit-charge":
                if abs(np.trapezoid(rho, x) - 1.0) > _NORM_TOL:
                    return f"t={t}: total charge != 1"
            elif scn.normalization == "peak-normalized":
                if abs(np.max(np.abs(rho)) - 1.0) > _NORM_TOL:
                    return f"t={t}: max |rho| != 1"
            # unit-norm writes rho as computed: nothing is rescaled to check
        return None
    if kind == "spectrum":
        vals = cols["rho_tilde"]
        if np.any(vals < 0.0):
            return "negative spectral density"
        if scn.normalization == "peak-normalized":
            # field spectra are scaled by the t = 0 peak, the others per t
            ref_ts = [0.0] if scn.family == "uniform-field" and 0.0 in ts else ts
            for t, sel in _per_t(cols, ref_ts):
                top = float(np.max(vals[sel]))
                if not (0.99 <= top <= 1.0 + _NORM_TOL):
                    return f"t={t}: spectrum peak {top:.6g} != 1"
        return None
    return f"unknown output kind {kind!r}"


def check_file(scn, case: dict, path: Path, reference: dict | None = None):
    """(why the output fails, or None; its reference entry)."""
    header, data = read_csv(path)
    why = check_invariants(scn, case, kind_of(scn, path.name), header, data)
    if why is None and reference is not None:
        entry = reference.get(path.name)
        why = ("no reference for this file" if entry is None
               else compare_reference(entry, header, data))
    return why, reference_entry(header, data)


def reference_entry(header: list[str], data: np.ndarray) -> dict:
    """What a reference keeps of one output file."""
    stride = max(1, math.ceil(len(data) / REF_ROWS))
    scale = [max(float(v), 1.0) if col in _UNIT_SCALE else float(v)
             for col, v in zip(header, np.max(np.abs(data), axis=0))]
    return {"columns": header,
            "stride": stride,
            "scale": [float(f"{v:.10g}") for v in scale],
            "rows": [[float(f"{v:.10g}") for v in row] for row in data[::stride]]}


def compare_reference(entry: dict, header: list[str], data: np.ndarray) -> str | None:
    """None if ``data`` matches the reference entry to REF_TOL of scale."""
    if header != entry["columns"]:
        return "columns differ from the reference"
    got = data[::entry["stride"]]
    want = np.asarray(entry["rows"], dtype=float)
    if got.shape != want.shape:
        return f"shape {got.shape} differs from the reference {want.shape}"
    tol = REF_TOL * np.maximum(np.asarray(entry["scale"]), np.finfo(float).tiny)
    bad = np.abs(got - want) > tol
    if np.any(bad):
        row, col = np.argwhere(bad)[0]
        return (f"{header[col]} row {row * entry['stride']}: {got[row, col]!r} vs "
                f"reference {want[row, col]!r}")
    return None


def write_reference(path: Path, seed: int, entries: dict) -> None:
    """Write reference entries by file name, one row per line."""
    parts = []
    for fname in sorted(entries):
        e = entries[fname]
        head = {k: e[k] for k in ("columns", "scale", "stride")}
        rows = ",\n".join(json.dumps(r) for r in e["rows"])
        parts.append(f"{json.dumps(fname)}: {json.dumps(head)[:-1]}, \"rows\": [\n{rows}]}}")
    path.write_text(f'{{"seed": {seed}, "files": {{\n' + ",\n".join(parts) + "\n}}\n")


def load_reference(path: Path) -> dict:
    """fname -> reference entry, as written by ``worker.py --write-reference``."""
    with open(path) as fh:
        return json.load(fh)["files"]
