"""Observables on sampled wavefunctions.

Charge density, Gaussian-similarity scores for the wavefunction and for the
charge density (each maximized over the trial half-width), momentum spectra,
moments, peak detection, and phase extraction along a classical worldline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


# the coarse log-spaced scan of best_sigma and its golden-section tolerance
_COARSE = 64
_REL_TOL = 1e-6
# |psi| at the grid edge, relative to its maximum, that flags a spectrum
_BOUNDARY_TOL = 1e-8
# bisection rounds of phase_trace
_MAX_REFINES = 16


class BracketError(ValueError):
    """The similarity objective had no interior maximum on the search bracket."""


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
    """Maximize a unimodal objective over sigma in ``bracket``.

    Log-spaced coarse scan to locate the maximum, then golden-section
    refinement to |d sigma / sigma| < _REL_TOL.  Raises BracketError when
    the coarse scan puts the maximum on the bracket edge.
    """
    lo, hi = bracket
    if not (0 < lo < hi):
        raise BracketError(f"invalid bracket {bracket}")
    grid = np.geomspace(lo, hi, _COARSE)
    vals = np.array([objective(s) for s in grid])
    i0 = int(np.argmax(vals))
    if i0 == 0 or i0 == _COARSE - 1:
        raise BracketError(
            f"no interior maximum on sigma bracket [{lo:g}, {hi:g}]"
        )
    a, b = grid[i0 - 1], grid[i0 + 1]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > _REL_TOL * b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    sigma = 0.5 * (a + b)
    return sigma, float(objective(sigma))


def _gaussian(xs: np.ndarray, center: float, sigma: float) -> np.ndarray:
    """exp(-(x - center)^2 / (2 sigma^2)), the x-space Gaussian of both
    similarity scores.  Each score applies the unit-norm factor
    (sigma sqrt(pi))^(-1/2) in its own (differently rounded) form."""
    return np.exp(-0.5 * ((xs - center) / sigma) ** 2)


def _default_bracket(xs: np.ndarray) -> tuple[float, float]:
    dx = float(np.min(np.diff(xs)))
    return dx, 0.5 * (xs[-1] - xs[0])


def gauss_similarity_psi(wave: WaveSlice, x_bar: float, p_bar: float) -> GaussFitResult:
    """Maximal squared overlap of psi with a moving Gaussian reference.

    The reference is (sigma sqrt(pi))^(-1/2) exp[-(x-x_bar)^2/(2 sigma^2)
    + i p_bar x / hbar]; psi is renormalized on the grid first so the score
    is scale free.
    """
    xs = wave.xs
    psi = wave.psi / np.sqrt(wave.norm())
    plane = np.exp(-1j * p_bar * xs)
    weighted = psi * plane  # conj(phi_G) psi with the Gaussian factored out

    def objective(sigma):
        gauss = (sigma * np.sqrt(np.pi)) ** -0.5 * _gaussian(xs, x_bar, sigma)
        return abs(np.trapezoid(gauss * weighted, xs)) ** 2

    sigma, score = best_sigma(objective, _default_bracket(xs))
    return GaussFitResult(score=score, sigma_star=sigma, imag_residual=0.0)


def gauss_similarity_rho(density: DensitySlice, x_bar: float) -> GaussFitResult:
    """Bhattacharyya-type overlap of the charge density with a Gaussian.

    score = max_sigma Re int sqrt(rho_G rho) dx / sqrt(int |rho| dx); where
    rho < 0 the principal square root makes the integrand imaginary, whose
    magnitude at the optimum is reported as ``imag_residual``.
    """
    xs = density.xs
    rho = density.rho
    denom = np.sqrt(np.trapezoid(np.abs(rho), xs))
    if denom == 0.0:
        raise ValueError("density has zero total |rho|")
    pos = np.sqrt(np.where(rho > 0.0, rho, 0.0))
    neg = np.sqrt(np.where(rho < 0.0, -rho, 0.0))

    def gauss(sigma):
        return _gaussian(xs, x_bar, sigma) / np.sqrt(sigma * np.sqrt(np.pi))

    def objective(sigma):
        return np.trapezoid(gauss(sigma) * pos, xs) / denom

    sigma, score = best_sigma(objective, _default_bracket(xs))
    imag = float(np.trapezoid(gauss(sigma) * neg, xs)) / denom
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
    qualifies.
    """
    from scipy.signal import find_peaks as _scipy_find_peaks  # ~1 s to import, off the run path
    rho = density.rho
    top = float(np.max(rho))
    if top <= 0.0:
        return []
    idx, _ = _scipy_find_peaks(rho, prominence=min_prominence * top)
    return [(float(density.xs[i]), float(rho[i])) for i in idx]


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
    t_arr = np.array(t_list)
    phi_all = np.unwrap(np.array([raw[t] for t in t_list]))
    # anchor so phi(ts[0]) keeps its raw principal value
    keep = np.isin(t_arr, ts)
    phi = phi_all[keep]
    s_cl = np.array([action(t) for t in ts])
    return PhaseTrace(ts=ts, phi=phi, s_cl_over_hbar=s_cl)


def _wrap(angle: float) -> float:
    return (angle + np.pi) % (2.0 * np.pi) - np.pi
