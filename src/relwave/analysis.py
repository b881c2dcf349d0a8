"""Observables on sampled wavefunctions.

Charge density, Gaussian-similarity scores for the wavefunction and for the
charge density (each maximized over the trial half-width), momentum spectra,
moments, peak detection, and phase extraction along a classical worldline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import trapezoid_weights

__all__ = [
    "WaveSlice",
    "DensitySlice",
    "GaussFitResult",
    "PhaseTrace",
    "SpectrumResult",
    "BracketError",
    "charge_density",
    "best_sigma",
    "gauss_similarity_psi",
    "gauss_similarity_rho",
    "momentum_spectrum",
    "expectation_x",
    "find_peaks",
    "phase_trace",
]


# the log-spaced scan of best_sigma, the log-sigma width at which its root
# is found, and the widths per exp block of a similarity objective
_COARSE = 64
_ROOT_TOL = 1e-15
_BLOCK = 16
# |psi| at the grid edge, relative to its maximum, that flags a spectrum
_BOUNDARY_TOL = 1e-8
# bisection rounds of phase_trace
_MAX_REFINES = 16


class BracketError(ValueError, ArithmeticError):
    """A similarity fit found no maximum inside its bracket, or a zero density."""


@dataclass(frozen=True)
class WaveSlice:
    """Sampled complex amplitudes psi and d/dt psi on an x-grid at fixed t."""

    t: float
    xs: np.ndarray
    psi: np.ndarray
    dpsi_dt: np.ndarray

    def __post_init__(self):
        if not (len(self.xs) == len(self.psi) == len(self.dpsi_dt)):
            raise ValueError("xs, psi, dpsi_dt must have equal length")
        if np.any(np.diff(self.xs) <= 0):
            raise ValueError("xs must be strictly increasing")

    def norm(self) -> float:
        return float(np.trapezoid(np.abs(self.psi) ** 2, self.xs))


@dataclass(frozen=True)
class DensitySlice:
    """Signed charge density on an x-grid at fixed t."""

    t: float
    xs: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        if len(self.xs) != len(self.rho):
            raise ValueError("xs and rho must have equal length")

    def total_charge(self) -> float:
        return float(np.trapezoid(self.rho, self.xs))


@dataclass(frozen=True)
class GaussFitResult:
    score: float
    sigma_star: float
    imag_residual: float

    def __post_init__(self):
        if self.sigma_star <= 0:
            raise ValueError("sigma_star must be positive")


@dataclass(frozen=True)
class PhaseTrace:
    ts: np.ndarray
    phi: np.ndarray
    s_cl_over_hbar: np.ndarray

    @property
    def offset(self) -> np.ndarray:
        return self.phi - self.s_cl_over_hbar


@dataclass(frozen=True)
class SpectrumResult:
    p: np.ndarray
    rho_tilde: np.ndarray
    flags: tuple[str, ...] = ()


def charge_density(wave: WaveSlice) -> DensitySlice:
    """rho = (q/mc^2) Re[psi* i hbar d/dt psi] on the grid (A0 = 0 in the
    gauges used here)."""
    rho = np.real(np.conj(wave.psi) * (1j * wave.dpsi_dt))
    return DensitySlice(t=wave.t, xs=wave.xs, rho=rho)


def best_sigma(objective, bracket: tuple[float, float]) -> tuple[float, float]:
    """Maximize a similarity score over sigma in ``bracket``.

    ``objective(sigmas)`` returns the score and its d/d sigma at an array of
    widths.  One call scans _COARSE log-spaced widths; in the half-cell beside
    their maximum, a safeguarded regula falsi in log sigma then takes the
    root of d/d sigma, determinate to about 1e-15 of sigma.  Raises
    BracketError when the scan's maximum is on the bracket edge or d/d sigma
    keeps its sign across the half-cell.
    """
    lo, hi = bracket
    if not (0 < lo < hi):
        raise BracketError(f"invalid bracket {bracket}")
    grid = np.geomspace(lo, hi, _COARSE)
    vals, slopes = objective(grid)
    i0 = int(np.argmax(vals))
    if i0 == 0 or i0 == _COARSE - 1:
        raise BracketError(f"no interior maximum on sigma bracket [{lo:g}, {hi:g}]")
    # ends (log sigma, sigma, score, d score / d log sigma); the Illinois rule
    # halves the slope of an end kept twice in a row, and a bisection follows
    # three steps that did not halve the bracket together
    a, b = [(np.log(grid[i]), grid[i], vals[i], grid[i] * slopes[i])
            for i in (i0, i0 + 1 if slopes[i0] > 0 else i0 - 1)]
    if a[3] * b[3] > 0:
        raise BracketError(f"d/d sigma keeps its sign beside sigma = {grid[i0]:g}")
    ga, gb, kept, widths = a[3], b[3], None, [abs(b[0] - a[0])]
    while a[3] != 0 and b[3] != 0 and widths[-1] > _ROOT_TOL:
        stalled = len(widths) > 3 and widths[-1] > 0.5 * widths[-4]
        s = 0.5 * (a[0] + b[0]) if stalled else b[0] - gb * (b[0] - a[0]) / (gb - ga)
        if not min(a[0], b[0]) < s < max(a[0], b[0]):
            break
        sigma = np.exp(s)
        val, slope = objective(np.array([sigma]))
        c = (s, sigma, val[0], sigma * slope[0])
        if c[3] * a[3] > 0:
            a, ga, gb, kept = c, c[3], gb * (0.5 if kept == "b" else 1.0), "b"
        else:
            b, gb, ga, kept = c, c[3], ga * (0.5 if kept == "a" else 1.0), "a"
        widths.append(abs(b[0] - a[0]))
    end = min(a, b, key=lambda e: abs(e[3]))
    return float(end[1]), float(end[2])


def _default_bracket(xs: np.ndarray) -> tuple[float, float]:
    return float(np.min(np.diff(xs))), 0.5 * (xs[-1] - xs[0])


def _overlap(xs: np.ndarray, x_bar: float, weight: np.ndarray):
    """sigmas -> (I, dI/d sigma), I = int g weight dx by the trapezoid rule
    with g = (sigma sqrt(pi))^(-1/2) exp(-(x - x_bar)^2/(2 sigma^2)).  exp is
    taken for _BLOCK widths at a time, one matrix product per block."""
    u2, h = (xs - x_bar) ** 2, trapezoid_weights(xs)
    cols = np.stack([h * weight, h * u2 * weight], axis=1)
    flat, work = cols.view(float), np.empty((_BLOCK, len(xs)))  # complex as (re, im)

    def moments(sigmas):
        out = np.empty((len(sigmas), flat.shape[1]))
        for k in range(0, len(sigmas), _BLOCK):
            e = work[:len(sigmas[k:k + _BLOCK])]
            # in place, and floored at exp(-300) ~ 5e-131, which moves no
            # score: exp and the product are much slower where they underflow
            np.multiply.outer(-0.5 / sigmas[k:k + _BLOCK] ** 2, u2, out=e)
            out[k:k + _BLOCK] = np.exp(np.maximum(e, -300.0, out=e), out=e) @ flat
        m, m2 = out.view(cols.dtype).T
        norm = (sigmas * np.sqrt(np.pi)) ** -0.5
        return norm * m, norm / sigmas * (m2 / sigmas**2 - 0.5 * m)

    return moments


def gauss_similarity_psi(wave: WaveSlice, x_bar: float, p_bar: float) -> GaussFitResult:
    """Maximal squared overlap of psi with a moving Gaussian reference.

    The reference is (sigma sqrt(pi))^(-1/2) exp[-(x-x_bar)^2/(2 sigma^2)
    + i p_bar x / hbar]; psi is renormalized on the grid first so the score
    is scale free.
    """
    xs = wave.xs
    # conj(phi_G) psi with the Gaussian factored out
    overlap = _overlap(xs, x_bar, wave.psi / np.sqrt(wave.norm()) * np.exp(-1j * p_bar * xs))

    def objective(sigmas):
        i, di = overlap(sigmas)
        return np.abs(i) ** 2, 2.0 * np.real(np.conj(i) * di)

    sigma, score = best_sigma(objective, _default_bracket(xs))
    return GaussFitResult(score=score, sigma_star=sigma, imag_residual=0.0)


def gauss_similarity_rho(density: DensitySlice, x_bar: float) -> GaussFitResult:
    """Bhattacharyya-type overlap of the charge density with a Gaussian.

    score = max_sigma Re int sqrt(rho_G rho) dx / sqrt(int |rho| dx); where
    rho < 0 the principal square root makes the integrand imaginary, whose
    magnitude at the optimum is reported as ``imag_residual``.
    """
    xs = density.xs
    denom = np.sqrt(np.trapezoid(np.abs(density.rho), xs))
    if denom == 0.0:
        raise BracketError("density has zero total |rho|")
    overlap = _overlap(xs, x_bar, np.sqrt(density.rho + 0j) / denom)
    sigma, score = best_sigma(lambda s: np.real(overlap(s)), _default_bracket(xs))
    imag = float(overlap(np.array([sigma]))[0][0].imag)
    return GaussFitResult(score=score, sigma_star=sigma, imag_residual=abs(imag))


def momentum_spectrum(wave: WaveSlice) -> SpectrumResult:
    """|FT psi|^2 with the convention psi~(p) = int dx/sqrt(2 pi hbar) e^{-ipx/hbar} psi.

    Uses the FFT on the uniform grid; a flag is attached when |psi| at the
    grid boundary exceeds _BOUNDARY_TOL times its maximum.
    """
    xs, psi = wave.xs, wave.psi
    dx = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), dx, rtol=1e-9, atol=0.0):
        raise ValueError("momentum_spectrum requires a uniform grid")
    n = len(xs)
    flags = ()
    amax = float(np.max(np.abs(psi)))
    if amax > 0 and max(abs(psi[0]), abs(psi[-1])) > _BOUNDARY_TOL * amax:
        flags = ("boundary-mass: |psi| at grid edge above tolerance",)
    p = np.fft.fftshift(np.fft.fftfreq(n, d=dx)) * 2.0 * np.pi
    ft = np.fft.fftshift(np.fft.fft(psi))
    ft = ft * dx / np.sqrt(2.0 * np.pi) * np.exp(-1j * p * xs[0])
    return SpectrumResult(p=p, rho_tilde=np.abs(ft) ** 2, flags=flags)


def expectation_x(xs: np.ndarray, weights: np.ndarray) -> float:
    """First moment of a non-negative weight sampled on ``xs``."""
    total = np.trapezoid(weights, xs)
    if total <= 0.0:
        raise ValueError("weights must have positive total mass")
    return float(np.trapezoid(xs * weights, xs) / total)


def find_peaks(density: DensitySlice, min_prominence: float = 0.05):
    """Local maxima of rho with prominence above ``min_prominence`` times max.

    Returns a list of (x_peak, height) sorted by x; empty list when nothing
    qualifies.  The rules are those of ``scipy.signal.find_peaks``: a flat
    top is one peak at its middle sample (the left one of two), an end
    sample is never a peak, and a peak's prominence is its height over the
    higher of its two bases, the lowest values on each side before a higher
    sample.
    """
    rho = density.rho
    top = float(np.max(rho))
    if top <= 0.0:
        return []
    starts = np.flatnonzero(np.concatenate(([True], rho[1:] != rho[:-1])))
    ends = np.append(starts[1:], len(rho)) - 1
    level = rho[starts]
    top_run = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = []
    for i in (starts[top_run] + ends[top_run]) // 2:
        higher = np.flatnonzero(rho > rho[i])
        k = np.searchsorted(higher, i)
        lo = higher[k - 1] + 1 if k else 0
        hi = higher[k] if k < len(higher) else len(rho)
        if rho[i] - max(rho[lo:i + 1].min(), rho[i:hi].min()) >= min_prominence * top:
            peaks.append((float(density.xs[i]), float(rho[i])))
    return peaks


def phase_trace(evaluator, trajectory, action, ts) -> PhaseTrace:
    """Unwrapped phase of psi along a classical worldline vs. the action.

    ``evaluator(ts, xs) -> psi`` samples the wavefunction at the pairs
    (ts[k], xs[k]), ``trajectory(t)`` gives the worldline position,
    ``action(t)`` the classical action.  Intervals whose raw phase increment
    reaches pi are bisected until increments are safe; failure to achieve
    that raises.  The evaluator is called once for ``ts`` and once per
    bisection round, with all of that round's midpoints.
    """
    ts = np.asarray(ts, dtype=float)
    raw = {}

    def sample(times):
        xs = np.array([trajectory(t) for t in times], dtype=float)
        raw.update(zip(times.tolist(), np.angle(evaluator(times, xs)).tolist()))

    sample(ts)
    t_list = list(ts)
    for _ in range(_MAX_REFINES):
        gaps = [
            (a, b) for a, b in zip(t_list[:-1], t_list[1:])
            if abs(_wrap(raw[b] - raw[a])) >= 0.95 * np.pi
        ]
        if not gaps:
            break
        sample(np.array([0.5 * (a + b) for a, b in gaps]))
        t_list = sorted(raw)
    else:
        raise ArithmeticError(
            "phase unwrapping failed: increments still >= pi after refinement"
        )
    phi_all = np.unwrap(np.array([raw[t] for t in t_list]))
    # anchor so phi(ts[0]) keeps its raw principal value; a set, not np.isin,
    # whose np.unique would load numpy.ma in the run
    asked = set(ts.tolist())
    phi = phi_all[np.array([t in asked for t in t_list], dtype=bool)]
    s_cl = np.array([action(t) for t in ts])
    return PhaseTrace(ts=ts, phi=phi, s_cl_over_hbar=s_cl)


def _wrap(angle: float) -> float:
    return (angle + np.pi) % (2.0 * np.pi) - np.pi
