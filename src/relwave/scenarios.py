"""Named scenario runner: builds packets, sweeps grids, writes CSV/JSON.

Each case's packet is built once (``packets.packet_for``), when its
``Scenario`` is built, for the scenario's x-range and the largest |t| of its
outputs, and every run and output of the case reads it without knowing its
family.  A case's outputs come from one pass over ``t_list``: each time's
``Packet.observe`` record, which ``relwave verify`` reads too, serves all
its outputs (the widths are columns of the metrics).  Each builtin
scenario reproduces the data behind one figure of the study at desk scale.
Output files use fixed schemas, one file per (case, output); two outputs
that would share a file name are a ``ScenarioError``:

    density  -> t,x,rho,re_psi,im_psi
    metrics  -> t,G_psi,sigma_psi,G_rho,sigma_rho,imag_residual
    spectrum -> t,p,rho_tilde
    phase    -> t,phi,s_cl_over_hbar,offset
    widths   -> t,sigma_rho,sigma_psi

Every float is written as the bytes of ``"%.17g" % v`` (17 significant
digits, round-trip exact), so repeated runs of the same configuration
produce byte-identical files.  A file of fewer than ``_FAST_FILE_VALUES``
values (metrics, widths, phase) is formatted value by value.  A larger one
(density, spectrum) goes through ``csv_format.format_g17``, which takes
the 17 digits from a double-double product with a tabulated 10^s (error
below 4e-15 of the last digit) and falls back to the per-value format for
every value it cannot certify: a non-finite one, |v| outside
[1e-250, 1e250] (0 excepted), one next to a power of ten whose log10 is
off by one, and one within 1e-10 of a rounding tie.
Both routes write the same bytes.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import time
from dataclasses import asdict, dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .csv_format import format_g17
from .free_packets import _OVERSAMPLE, _TAIL_EPS, _WINDOW_FACTOR
from .packets import FAMILIES, Packet, ScenarioError, packet_for

__all__ = [
    "Scenario",
    "RunManifest",
    "ScenarioError",
    "builtin_scenarios",
    "list_scenarios",
    "load_config",
    "run",
]

_OUTPUTS = ("density", "metrics", "spectrum", "phase", "widths")
_NORMALIZATIONS = ("unit-charge", "unit-norm", "peak-normalized")


@dataclass(frozen=True)
class Scenario:
    """One configuration-driven sweep.

    Each case's keys are the keyword-only parameters of its family's builder
    in ``packets`` (``_closed``, ``_gauss``, ``_field``), plus an optional
    ``family`` and ``t_max``, which only ends its phase trace (``_phase_end``).
    Every case is checked here, its worldline against the x-grid included.
    ``t_list`` may contain negative times.  ``packets`` holds each case's
    packet, built here for the largest |t| of its outputs and read by every
    ``run``; it is not a field, so it stays out of the repr, equality and
    manifest.
    """

    name: str
    family: str
    cases: tuple
    t_list: tuple
    x_min: float = -30.0
    x_max: float = 30.0
    x_count: int = 2001
    outputs: tuple = ("density",)
    normalization: str = "unit-charge"
    description: str = ""
    phase_t_max: float = 50.0
    phase_dt: float = 0.25
    p_min: float = -8.0
    p_max: float = 8.0
    p_count: int = 1601

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ScenarioError(f"unknown family {self.family!r}")
        if len(self.t_list) == 0:
            raise ScenarioError("t_list must be non-empty")
        if not np.all(np.isfinite(self.t_list)):
            raise ScenarioError("t_list values must be finite")
        if not np.all(np.isfinite([self.x_min, self.x_max, self.p_min, self.p_max,
                                   self.phase_t_max])):
            raise ScenarioError("grid bounds must be finite")
        if self.x_count < 64:
            raise ScenarioError("x_count must be >= 64")
        if not self.x_min < self.x_max:
            raise ScenarioError("x_min must be < x_max")
        if not self.p_min < self.p_max:
            raise ScenarioError("p_min must be < p_max")
        if self.p_count < 2:
            raise ScenarioError("p_count must be >= 2")
        if not self.phase_dt > 0:
            raise ScenarioError("phase_dt must be positive")
        if not self.phase_t_max >= 0:
            raise ScenarioError("phase_t_max must be >= 0")
        if self.normalization not in _NORMALIZATIONS:
            raise ScenarioError(f"unknown normalization {self.normalization!r}")
        for out in self.outputs:
            if out not in _OUTPUTS:
                raise ScenarioError(f"unknown output kind {out!r}")
        if not self.cases:
            raise ScenarioError("scenario needs at least one case")
        t_out = float(np.max(np.abs(self.t_list)))
        x_extent = max(abs(self.x_min), abs(self.x_max)) + 1.0
        on_grid = {"density", "metrics", "widths"} & set(self.outputs)
        packets = []
        for case in self.cases:
            pk = packet_for(case, self.family, x_extent, max(t_out, _phase_end(self, case)))
            for t in self.t_list if on_grid else ():
                x = pk.motion.x(t)
                if not self.x_min <= x <= self.x_max:
                    raise ScenarioError(
                        f"case {pk.label}: classical position x = {x:.6g} at t = {t:g} "
                        f"lies outside the grid [{self.x_min:g}, {self.x_max:g}]")
            packets.append(pk)
        object.__setattr__(self, "packets", tuple(packets))
        names = [_file_name(self, kind, pk.label) for pk in packets for kind in self.outputs]
        for fname in names:
            if names.count(fname) > 1:
                raise ScenarioError(f"two outputs would write {fname}: two cases with "
                                    "one label, or an output kind listed twice")


@dataclass
class RunManifest:
    scenario: dict
    tool_version: str
    quadrature_settings: dict
    wall_time_s: float = 0.0
    outputs: dict = dc_field(default_factory=dict)  # filename -> sha256

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "wall_time_s": round(self.wall_time_s, 3)},
                          indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# CSV writing
# ---------------------------------------------------------------------------

_FAST_FILE_VALUES = 4096  # smaller files are formatted value by value
_CHUNK_VALUES = 4096  # values per call of format_g17, which bounds its temporaries


def _write_csv(path: Path, header: str, blocks) -> str:
    """Write ``blocks`` under ``header`` and return the file's sha256.
    ``blocks`` is a list of column tuples, each column a 1-d array or a
    scalar repeated down its block.  Every value is written as ``%.17g``: a
    file of at least _FAST_FILE_VALUES values by ``format_g17``, chunk by
    chunk, each chunk written and hashed before the next; a smaller one by
    one %-format per row.  The formatter's tables are built on its first
    call, so runs that write no large file do not build them."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def emit(data: bytes):
            fh.write(data)
            digest.update(data)

        emit(header.encode() + b"\n")
        if sum(max(np.size(col) for col in block) * len(block)
               for block in blocks) < _FAST_FILE_VALUES:
            for block in blocks:
                fmt = ",".join("%.17g" % col if np.ndim(col) == 0 else "%.17g"
                               for col in block)
                cols = [np.asarray(col, dtype=float).tolist() for col in block
                        if np.ndim(col) > 0]
                emit("".join(fmt % row + "\n" for row in zip(*cols)).encode())
            return digest.hexdigest()
        for block in blocks:
            values = np.empty((max(np.size(col) for col in block), len(block)))
            for j, col in enumerate(block):
                values[:, j] = col
            sep = np.full(len(block), ord(","), np.uint8)
            sep[-1] = ord("\n")
            rows = max(1, _CHUNK_VALUES // len(block))
            for start in range(0, len(values), rows):
                text = format_g17(values[start:start + rows].ravel()).view(np.uint8)
                text.reshape(-1, len(block), 32)[:, :, 31] = sep
                emit(text.tobytes().translate(None, b"\0"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# per-case outputs
# ---------------------------------------------------------------------------

def _file_name(scn: Scenario, kind: str, label: str) -> str:
    return f"{scn.name}_{kind}_{label}.csv"


def _phase_end(scn: Scenario, case: dict) -> float:
    """Where the phase trace of ``case`` ends: at the smaller of its own
    ``t_max`` and ``phase_t_max``, or at 0 when ``scn`` has no phase output.
    The one reader of a case's ``t_max``: a non-finite or negative one is a
    ScenarioError naming the case."""
    t_max = case.get("t_max", scn.phase_t_max)
    if isinstance(t_max, float) and not np.isfinite(t_max):
        raise ScenarioError(f"case {case}: t_max must be finite")
    if not t_max >= 0:
        raise ScenarioError(f"case {case}: t_max must be >= 0")
    return float(min(t_max, scn.phase_t_max)) if "phase" in scn.outputs else 0.0


def _case_outputs(scn: Scenario, case: dict, pk: Packet, xs: np.ndarray):
    """(file name, header, column blocks) for each output of one case, in one pass
    over ``t_list``: each time's observation serves its density rows and its
    metrics rows, whose fits it makes only when read; the widths are columns
    of the metrics rows.  The spectrum follows, reading the slices' node
    modes where the packet keeps them, and then the phase trace."""
    kinds = set(scn.outputs)
    density, metrics = [], []
    for t in scn.t_list if kinds & {"density", "metrics", "widths"} else ():
        obs = pk.observe(t, xs)
        if "density" in kinds:
            rho = obs.density.rho
            if scn.normalization == "unit-charge":
                rho = rho / obs.density.total_charge()
            elif scn.normalization == "peak-normalized":
                rho = rho / np.max(np.abs(rho))
            density.append((t, xs, rho, obs.slice.psi.real, obs.slice.psi.imag))
        if kinds & {"metrics", "widths"}:
            metrics.append((t, obs.fit_psi.score, obs.fit_psi.sigma_star, obs.fit_rho.score,
                            obs.fit_rho.sigma_star, obs.fit_rho.imag_residual))
    cols = tuple(zip(*metrics))
    out = {"density": ("t,x,rho,re_psi,im_psi", density),
           "metrics": ("t,G_psi,sigma_psi,G_rho,sigma_rho,imag_residual", [cols])}
    if metrics:
        out["widths"] = ("t,sigma_rho,sigma_psi", [(cols[0], cols[4], cols[2])])
    if "spectrum" in kinds:
        ps = np.linspace(scn.p_min, scn.p_max, scn.p_count)
        peak = pk.spectrum_peak(ps) if scn.normalization == "peak-normalized" else 1.0
        out["spectrum"] = ("t,p,rho_tilde",
                           [(t, ps, pk.spectrum(ps, t) / peak) for t in scn.t_list])
    if "phase" in kinds:
        t_end = _phase_end(scn, case)
        tr = pk.trace_phase(np.arange(0.0, t_end + 0.5 * scn.phase_dt, scn.phase_dt))
        out["phase"] = ("t,phi,s_cl_over_hbar,offset",
                        [(tr.ts, tr.phi, tr.s_cl_over_hbar, tr.offset)])
    return [(_file_name(scn, kind, pk.label), *out[kind]) for kind in scn.outputs]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def run(scenario: Scenario, out_dir: str | Path = "out", *, threads: int = 1) -> RunManifest:
    """Execute a scenario, writing one CSV per (case, output) plus a manifest.
    Every case's outputs are computed before any file is written, so a case
    that fails leaves no CSV.  ``threads`` must be 1: cases run serially, and
    the keyword goes with its last caller, ``perfbench/worker.py`` (ROADMAP
    item A)."""
    if threads != 1:
        raise ScenarioError(f"threads must be 1, not {threads!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()
    manifest = RunManifest(
        scenario=asdict(scenario),
        tool_version=__version__,
        quadrature_settings={
            "oversample": _OVERSAMPLE,
            "tail_eps": _TAIL_EPS,
            "momentum_window_factor": _WINDOW_FACTOR,
        },
    )
    xs = np.linspace(scenario.x_min, scenario.x_max, scenario.x_count)
    files = [f for case, pk in zip(scenario.cases, scenario.packets)
             for f in _case_outputs(scenario, case, pk, xs)]
    for fname, header, blocks in files:
        manifest.outputs[fname] = _write_csv(out / fname, header, blocks)

    manifest.wall_time_s = time.time() - started
    (out / f"{scenario.name}_manifest.json").write_text(manifest.to_json())
    return manifest


# ---------------------------------------------------------------------------
# builtin catalog
# ---------------------------------------------------------------------------

def _cases_closed(*varthetas, v0=0.25):
    return tuple({"vartheta": vt, "v0": v0} for vt in varthetas)


_GAUSS_FOUR = ({"sigma0": 3.0, "gamma0": 1.0}, {"sigma0": 3.0, "gamma0": 10.0},
               {"sigma0": 0.3, "gamma0": 10.0}, {"sigma0": 0.3, "gamma0": 1.0})

_FIELD_THREE = ({"sigma0": 3.0, "gamma0": 1.0, "force": 0.1},
                {"sigma0": 0.3, "gamma0": 1.0, "force": 0.1},
                {"sigma0": 0.3, "gamma0": 10.0, "force": 0.1})


# each builtin's Scenario fields but its name; a Scenario is built only when
# asked for, since building one builds its packets (a closed-free one
# evaluates K1 and builds the K0/K1 node tables)
_BUILTINS = {
    "fig1": dict(
        family="closed-free",
        cases=_cases_closed(100.0, 10.0, 1.0, 0.1),
        t_list=(0.0, 10.0, 20.0), x_min=-30.0, x_max=30.0, x_count=2001,
        outputs=("density",), normalization="unit-charge",
        description="Closed-form packets at v0=c/4: charge density at t=0,10,20 "
                    "for c*vartheta=100,10,1,0.1 (unit total charge)."),
    "fig2": dict(
        family="closed-free",
        cases=_cases_closed(100.0, 10.0, 1.0, 0.1),
        t_list=tuple(np.arange(0.0, 20.5, 2.0)), x_min=-35.0, x_max=40.0,
        x_count=3001, outputs=("metrics", "widths"), normalization="unit-norm",
        description="Gaussian-similarity scores and best-fit half-widths vs t "
                    "for the closed-form packets."),
    "fig3": dict(
        family="closed-free",
        cases=_cases_closed(100.0, 10.0, 1.0, 0.1),
        t_list=(0.0,), outputs=("spectrum",), normalization="unit-norm",
        p_min=-6.0, p_max=6.0, p_count=2401,
        description="Momentum distributions of the closed-form packets "
                    "(time independent)."),
    "fig4": dict(
        family="gauss-free",
        cases=_GAUSS_FOUR,
        t_list=(0.0, 4.0, 8.0, 12.0, 16.0), x_min=-30.0, x_max=46.0,
        x_count=3001, outputs=("density",), normalization="unit-charge",
        description="Initially Gaussian free packets, four (sigma0, gamma0) "
                    "cases: density at t=0..16."),
    "fig5": dict(
        family="gauss-free",
        cases=_GAUSS_FOUR,
        t_list=tuple(np.arange(0.0, 16.5, 2.0)), x_min=-30.0, x_max=46.0,
        x_count=3001, outputs=("metrics", "widths"), normalization="unit-norm",
        description="Similarity scores and best-fit widths for the initially "
                    "Gaussian free packets."),
    "fig6": dict(
        family="closed-free",
        cases=({"vartheta": 0.3, "v0": 0.99498743710662},
               {"vartheta": 96.0, "v0": 0.99498743710662},
               {"vartheta": 10.0, "v0": 0.0}),
        t_list=(0.0,), outputs=("spectrum",), normalization="peak-normalized",
        p_min=-3.0, p_max=22.0, p_count=2501,
        description="Peak-normalized momentum spectra comparing closed-form "
                    "packets against Gaussian spectra (gamma0=10 and v0=0)."),
    "fig7": dict(
        family="uniform-field",
        cases=_FIELD_THREE,
        t_list=(-12.0, -8.0, -4.0, 0.0, 4.0, 8.0, 12.0, 16.0),
        x_min=-40.0, x_max=70.0, x_count=2201,
        outputs=("density", "spectrum"), normalization="peak-normalized",
        p_min=-25.0, p_max=35.0, p_count=2401,
        description="Uniform-field packets (F=0.1): density and mode spectra, "
                    "including backward evolution."),
    "fig8": dict(
        family="uniform-field",
        cases=_FIELD_THREE,
        t_list=tuple(np.arange(0.0, 40.5, 4.0)),
        x_min=-40.0, x_max=70.0, x_count=2201,
        outputs=("metrics", "widths"), normalization="unit-norm",
        description="Similarity scores and best-fit widths for the "
                    "uniform-field packets over t=0..40."),
    "fig9": dict(
        family="closed-free",
        cases=({"family": "closed-free", "vartheta": 100.0, "v0": 0.25},
               {"family": "gauss-free", "sigma0": 0.3, "gamma0": 10.0},
               {"family": "uniform-field", "sigma0": 0.3, "gamma0": 10.0,
                "force": 0.1, "t_max": 40.0}),
        t_list=(0.0,), outputs=("phase",), normalization="unit-norm",
        phase_t_max=50.0, phase_dt=0.25, x_max=70.0,
        description="Phase along the classical worldline vs classical action "
                    "for the closed-form, Gaussian, and uniform-field packets."),
}

_ALIASES = {
    "fig7-lowerleft": ("fig7", ("spectrum",)),
    "fig7-upperleft": ("fig7", ("density",)),
}


def builtin_scenarios() -> dict[str, Scenario]:
    return {name: Scenario(name=name, **fields) for name, fields in _BUILTINS.items()}


def resolve_scenario(name: str) -> Scenario:
    """The builtin scenario or alias ``name``, and no other builtin."""
    if name in _BUILTINS:
        return Scenario(name=name, **_BUILTINS[name])
    if name in _ALIASES:
        base, outputs = _ALIASES[name]
        return Scenario(name=name, **{**_BUILTINS[base], "outputs": outputs})
    raise ScenarioError(
        f"scenario {name!r} not found; available: "
        + ", ".join(sorted(list(_BUILTINS) + list(_ALIASES)))
    )


def list_scenarios() -> list[tuple[str, str]]:
    """(name, description) pairs for the builtin catalog."""
    return [(name, fields["description"]) for name, fields in _BUILTINS.items()]


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_FLOAT_KEYS = {"x_min", "x_max", "p_min", "p_max", "phase_t_max", "phase_dt"}
_INT_KEYS = {"x_count", "p_count"}


def load_config(path: str | Path) -> list[Scenario]:
    """Parse an INI-style config, one section per scenario.

    Keys: family, outputs (comma list), t_list (comma list), cases (semicolon
    separated groups of comma-separated key=value pairs, each a number except
    a case's own ``family``), plus the grid and normalization fields of
    Scenario.
    """
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:  # a repeated section, ...
        raise ScenarioError(f"config file {path!r}: {exc}") from exc
    if not read:
        raise ScenarioError(f"config file {path!r} not found or empty")
    scenarios = []
    for section in parser.sections():
        raw = dict(parser[section])
        try:
            family = raw.pop("family")
            t_list = tuple(float(v) for v in raw.pop("t_list").split(","))
            cases_raw = raw.pop("cases")
            cases = []
            for group in cases_raw.split(";"):
                case = {}
                for item in group.split(","):
                    key, _, val = (part.strip() for part in item.partition("="))
                    case[key] = val if key == "family" else float(val)
                cases.append(case)
            kwargs = {"name": section, "family": family,
                      "cases": tuple(cases), "t_list": t_list}
            if "outputs" in raw:
                kwargs["outputs"] = tuple(v.strip() for v in raw.pop("outputs").split(","))
            if "normalization" in raw:
                kwargs["normalization"] = raw.pop("normalization").strip()
            for key, val in raw.items():
                if key in _FLOAT_KEYS:
                    kwargs[key] = float(val)
                elif key in _INT_KEYS:
                    kwargs[key] = int(val)
                else:
                    raise ScenarioError(f"[{section}] unknown key {key!r}")
            scenarios.append(Scenario(**kwargs))
        except ScenarioError:
            raise
        except Exception as exc:
            raise ScenarioError(f"[{section}] {exc}") from exc
    if not scenarios:
        raise ScenarioError(f"no scenario sections in {path!r}")
    return scenarios
