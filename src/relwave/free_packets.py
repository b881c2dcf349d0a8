"""Free-particle wavepackets.

Two families: the closed-form packet of a particle in uniform motion (flat
momentum spectrum over decaying modes, summing to a Bessel-K1 expression),
and the packet that is exactly Gaussian at t = 0.  Each config is a width
and a ``kinematics.FreeMotion``, so a packet and the classical worldline it
is scored against share one p0 and one x0.  The closed packet's psi
and d/dt psi are both closed forms (``_closed_form``; d/dt by
differentiating the K1 expression); ``closed_spectral`` keeps its plane-wave
sum as the reference route.  The Gaussian packet (``gauss_spectral``) is a
plane-wave sum exp(i(p x - E t)/hbar).  Both sums are ``quadrature.ModeSum``s
of modes amp_j exp(-i E_j t/hbar), with d/dt taken spectrally (each mode
weighted by -i E(p)/hbar); neither family uses finite differences, and
both spectra are normalized analytically.  ``packets.packet_for`` builds
either one once per case.

This module also holds what the uniform-field packets share with the free
ones: the initial Gaussian spectrum and the momentum-grid resolution
constants and node spacing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import FreeMotion
from .quadrature import ModeSum, momentum_grid
from .specfun import bessel_k0_k1, bessel_k1

__all__ = [
    "ClosedPacketConfig",
    "GaussianPacketConfig",
    "w_of_p",
    "energy",
    "spectrum_closed",
    "closed_spectral",
    "gauss_spectral",
    "gauss_spectrum",
]

# spectrum amplitude, relative to its peak, at the edge of every summed
# window: the closed spectrum's decay, and a Gaussian spectrum's, which
# reaches it at |p - p0| = _TAIL_WIDTH/sigma0
_TAIL_EPS = 1e-12
_TAIL_WIDTH = float(np.sqrt(2.0 * np.log(1.0 / _TAIL_EPS)))  # 7.43
_OVERSAMPLE = 3.0      # nodes per Nyquist interval of the fastest phase
# half-width of the uniform-field lattice in units of 1/sigma0 (its spectrum
# interpolates over that lattice's nodes), and the gauss-free window's floor
_WINDOW_FACTOR = 12.0


def energy(p):
    """Relativistic dispersion E(p) = c sqrt(m^2 c^2 + p^2)."""
    p = np.asarray(p, dtype=float)
    return np.sqrt(1.0 + p * p)


def w_of_p(p, motion: FreeMotion):
    """Mode decay function W(p) = E(p) - p v0; positive for |v0| < c."""
    return energy(p) - np.asarray(p, dtype=float) * motion.v0


@dataclass(frozen=True)
class ClosedPacketConfig:
    """Closed-form packet: width parameter vartheta (time units) and motion.

    ``k1_norm`` is exp(z_n) K1(z_n), the exponent-scaled K1 of the
    normalization |N|^2 (``_norm_arg``).  It is computed once, when the
    config is made, so evaluating the packet makes no K1 call for it, and
    the K0/K1 node tables are built with a closed-free scenario, not in a run.
    """

    vartheta: float
    motion: FreeMotion
    k1_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.vartheta > 0:
            raise ValueError("vartheta must be positive")
        object.__setattr__(self, "k1_norm",
                           float(bessel_k1(_norm_arg(self), scaled=True).real))


@dataclass(frozen=True)
class GaussianPacketConfig:
    """Initially Gaussian packet of half-width sigma0 about motion's x0 and p0."""

    sigma0: float
    motion: FreeMotion

    def __post_init__(self):
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")


def gauss_spectrum(p, sigma0: float, p0: float, x0: float):
    """Momentum amplitude of the Gaussian of half-width sigma0, momentum p0
    and centre x0, normalized so that 2 pi hbar int |.|^2 dp = 1."""
    return (np.sqrt(sigma0) / np.sqrt(2.0 * np.pi**1.5)) \
        * np.exp(-0.5 * sigma0**2 * (p - p0) ** 2 - 1j * p * x0)


def _plane_waves(p: np.ndarray, weights: np.ndarray, amp: np.ndarray) -> ModeSum:
    """The ModeSum of the plane waves amp_j exp(i(p_j x - E_j t)/hbar)."""
    e = energy(p)

    def modes(t, derivatives):
        a = amp * np.exp(-1j * e * t)
        return (a, a * (-1j * e)) if derivatives else a

    return ModeSum(p=p, weights=weights, modes=modes)


def _node_spacing(x_extent: float, t_max: float, sigma_p: float) -> float:
    freq = x_extent + abs(t_max) + 10.0
    return min(2.0 * np.pi / (_OVERSAMPLE * freq), sigma_p / 4.0)


def closed_spectral(cfg: ClosedPacketConfig, x_extent: float, t_max: float) -> ModeSum:
    """The closed packet as a plane-wave sum (the quadrature route).

    Its modes exp(-(vartheta + i t) W/hbar + i p (x - x0 - v0 t)/hbar) are
    plane waves times the spectrum exp(-vartheta W/hbar - i p x0/hbar): the
    p v0 t terms cancel, and d/dt is -i E/hbar in both forms.  The
    normalization |N|^2 = 1 / (4 pi hbar m c gamma0 K1(z_n)) is split as
    for the closed form: exp(z_n/2) joins the spectrum's exponent, which is
    <= 0 since z_n/2 = vartheta W(p0)/hbar and W >= W(p0), and the constant
    keeps the exponent-scaled K1, so wide packets (vartheta of 1000) stay
    finite.
    """
    m = cfg.motion
    decay = np.log(1.0 / _TAIL_EPS) / cfg.vartheta
    w0 = float(w_of_p(m.p0, m))
    p_hi = (decay + w0 + 2.0) / (1.0 - m.v0)
    p_lo = -(decay + w0 + 2.0) / (1.0 + m.v0)
    # curvature scale of exp(-vartheta W/hbar) around p0
    sigma_p = np.sqrt(m.gamma0**3 / cfg.vartheta)
    dp = _node_spacing(x_extent, t_max, sigma_p)
    half = 0.5 * (p_hi - p_lo)
    n = int(2 * half / dp) | 1
    nodes, weights = momentum_grid(0.5 * (p_hi + p_lo), half, max(n, 201))
    zn = _norm_arg(cfg)
    norm = float(1.0 / np.sqrt(4.0 * np.pi * m.gamma0 * cfg.k1_norm))
    spectrum = np.exp(0.5 * zn - cfg.vartheta * w_of_p(nodes, m) - 1j * nodes * m.x0)
    return _plane_waves(nodes, weights, norm * spectrum)


def gauss_spectral(cfg: GaussianPacketConfig, x_extent: float, t_max: float) -> ModeSum:
    """Plane-wave packet with the Gaussian momentum spectrum of the initial
    data, unit norm by ``gauss_spectrum``'s analytic normalization, summed
    where that spectrum exceeds _TAIL_EPS of its peak: |p - p0| <=
    _TAIL_WIDTH/sigma0, or <= _WINDOW_FACTOR where that is wider."""
    m = cfg.motion
    sigma_p = 1.0 / cfg.sigma0
    half = max(_TAIL_WIDTH * sigma_p, _WINDOW_FACTOR)
    dp = _node_spacing(x_extent, t_max, sigma_p)
    n = int(2 * half / dp) | 1
    nodes, weights = momentum_grid(m.p0, half, max(n, 401))
    return _plane_waves(nodes, weights, gauss_spectrum(nodes, cfg.sigma0, m.p0, m.x0))


def _norm_arg(cfg: ClosedPacketConfig) -> float:
    """z_n = 2 m c^2 vartheta / (hbar gamma0), the K1 argument of |N|^2."""
    return 2.0 * cfg.vartheta / cfg.motion.gamma0


def _closed_form(t: float, xs: np.ndarray, cfg: ClosedPacketConfig):
    """psi = N' (vartheta + i t) c K1(z) / f with z = m c f / hbar and
    f = sqrt((x - x0 - i v0 vartheta)^2 - c^2 (t - i vartheta)^2), and its
    t-derivative from dK1/dz = -K0 - K1/z and df/dt = -c^2 (t - i vartheta)/f.
    Elementwise: ``t`` may also hold one time per point of ``xs``.

    The exponents of K1(z) and of the 1/sqrt(K1(z_n)) in N' are combined,
    exp(z_n/2 - z), which is of order one where the packet is.

    The principal square root never meets its cut.  With x measured from
    x0, its argument a = (x - i v0 vartheta)^2 - c^2 (t - i vartheta)^2 has
    Im a = 2 vartheta (c^2 t - v0 x).  Where Im a = 0,
    Re a = c^2 t^2 (c^2/v0^2 - 1) + vartheta^2 (c^2 - v0^2) > 0
    (Re a = x^2 + c^2 vartheta^2 > 0 when v0 = 0), so a stays off the
    closed negative real axis whenever |v0| < c and vartheta > 0, which the
    configs enforce.
    """
    m = cfg.motion
    zn = _norm_arg(cfg)
    pref = np.sqrt(1.0 / (np.pi * m.gamma0 * cfg.k1_norm))
    tau = t - 1j * cfg.vartheta
    xr = np.asarray(xs, dtype=float) - m.x0
    f = np.sqrt((xr - 1j * m.v0 * cfg.vartheta) ** 2 - tau**2 + 0j)
    k0, k1 = bessel_k0_k1(f, scaled=True)
    g = 1j * pref * np.exp(0.5 * zn - f) / f
    psi = g * tau * k1
    dpsi = g * (k1 + tau**2 / f * (2.0 * k1 / f + k0))
    return psi, dpsi


def spectrum_closed(p, cfg: ClosedPacketConfig):
    """Momentum distribution 2 pi hbar |N|^2 exp(-2 vartheta W(p)/hbar).

    Time independent; normalized so it integrates to one over p.  Computed
    as exp(-2 vartheta (W - W(p0))/hbar) over the exponent-scaled K1 of
    |N|^2 (z_n = 2 vartheta W(p0)/hbar), so it neither under- nor overflows.
    """
    zn = _norm_arg(cfg)
    w = w_of_p(p, cfg.motion)
    return np.exp(zn - 2.0 * cfg.vartheta * w) / (2.0 * cfg.motion.gamma0 * cfg.k1_norm)
