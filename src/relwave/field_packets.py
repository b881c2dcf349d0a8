"""Wavepackets of a charged particle in a uniform electric field.

Gauge A = (0, -E t, 0, 0), so each momentum mode obeys
``psi_p'' + ((p + F t)^2 + M^2) psi_p = 0`` (natural units), solved by the
pair of parabolic cylinder functions of one order nu and one ray

    f+(s) = D_nu((1+i) s / sqrt|F|),   nu = -1/2 - i M^2/2|F|,   s = p + F t,
    f-(s) = conj f+(-s) = D_conj(nu)((i-1) s / sqrt|F|),

and for F < 0 by their conjugates: the mode equation in s holds F^2 only,
and a positive-frequency mode's phase, exp(-i int E ds / F), flips with F.

``mode_pair`` is the one place that evaluates them, from one D_nu value per
|s| on the first-quadrant ray (and for d/dt its D', from the same D_nu
pass): f+ at -|s| follows from it by the connection formula, because
-nu-1 = conj(nu), at every s.  The initial Gaussian is
imposed by the least-norm projection onto the pair (``mode_coeffs``):
c+- proportional to conj(f+-(p)) scaled so that c+ f+(p) + c- f-(p) equals
the Gaussian spectrum exactly at t = 0.  The squared ray weight
g(p) = |f+(p)|^2 + |f-(p)|^2 entering that scaling is not constant in p (it
falls off like 1/E(p)), which is why the explicit division is required for
initial-state fidelity.  The projection is exact at every node, so the
packet has the analytic unit norm of the Gaussian spectrum.  The packet is
the ``quadrature.ModeSum`` of the modes c+ f+ + c- f- on one momentum grid
(``field_mode_basis``, built once per case by ``packets.packet_for``), as
for the free packets, and like them it is summed only where the Gaussian
spectrum exceeds ``free_packets._TAIL_EPS`` of its peak.  Its nodes are
the central nodes of a lattice of half-width 12/sigma0, so the momentum
spectrum, interpolated between them, keeps the node positions of that
lattice.  A config is a width and a ``kinematics.FieldMotion``:
the modes and the classical worldline share one force, p0 and x0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .free_packets import _TAIL_WIDTH, _node_spacing, gauss_spectrum
from .kinematics import FieldMotion
from .quadrature import _PAIR_BLOCK, ModeSum, momentum_grid, trapezoid_weights
from .specfun import _fold_factors, pcf_d

__all__ = [
    "FieldPacketConfig",
    "ModeCoefficients",
    "mode_pair",
    "mode_coeffs",
    "field_mode_basis",
]

# half-width of the basis's momentum lattice in units of 1/sigma0: the
# spectrum output interpolates over that lattice's nodes
_WINDOW_FACTOR = 12.0


@dataclass(frozen=True)
class FieldPacketConfig:
    """Initial Gaussian of half-width sigma0 about motion's x0 and p0, under its
    force F = q * field; transverse momenta are zero (transverse mass m)."""

    sigma0: float
    motion: FieldMotion

    def __post_init__(self):
        if not self.sigma0 > 0:
            raise ValueError("sigma0 must be positive")


@dataclass(frozen=True)
class ModeCoefficients:
    p: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray


def _order_and_ray(cfg: FieldPacketConfig):
    """The order nu = -1/2 - i M^2/2|F| (real part exactly -1/2) and the ray
    r = (1+i)/sqrt|F| of f+(s) = D_nu(r s) (conjugated for F < 0)."""
    force = abs(cfg.motion.force)
    return complex(-0.5, -1.0 / (2.0 * force)), (1.0 + 1.0j) / np.sqrt(force)


def mode_pair(cfg: FieldPacketConfig, s, derivatives: bool = False):
    """f+(s), f-(s) at s = p + F t; with ``derivatives`` also d/dt f+-.

    One D_nu evaluation per point: D = D_nu(r|s|) lies on the first-quadrant
    ray, which pcf_d is given as declared (``theta`` = arg r = pi/4 and the
    radii |r||s|): it never folds there, and each point's regime is read
    from its radius.  Since -nu-1 = conj(nu) and D_nu has real
    Taylor coefficients, the connection formula (DLMF §12.2) gives f+ at
    -|s| from D alone, e^{-i pi nu} D + P conj D with
    P = sqrt(2 pi)/Gamma(-nu) e^{-i pi (nu+1)/2}, and f-(s) = conj f+(-s):
    each mode is f+ at +|s| or at -|s|, chosen by the sign of s.  With
    ``derivatives``, D' = d/dz D_nu(r|s|) comes from the same pcf_d pass as
    D (``derivative=True``: no D_nu of order nu - 1, and D keeps its bits),
    and at -|s| from -e^{-i pi nu} D' + i P conj D'.  The fold's guard runs
    before any D_nu, so a force whose P leaves double range (|F| below about
    1.1e-3) raises at every s.  An ``s`` of more than half
    ``quadrature._PAIR_BLOCK`` points is evaluated in pieces of that many,
    which bounds the memory of each pcf_d call (each value is independent
    of the others of its call).  For
    F < 0 the modes are the conjugates of those of |F|, and, since
    d/dt = F d/ds, their time derivatives are minus the conjugates of those
    of |F|.
    """
    half = _PAIR_BLOCK // 2
    if np.size(s) > half:
        flat = np.ravel(s)
        parts = [mode_pair(cfg, flat[i:i + half], derivatives)
                 for i in range(0, flat.size, half)]
        return tuple(np.concatenate(vals).reshape(np.shape(s)) for vals in zip(*parts))
    nu, ray = _order_and_ray(cfg)
    rot, pre = _fold_factors(nu, -1.0)
    shape = np.shape(s)
    s = np.ravel(np.asarray(s, dtype=float))
    radii = abs(ray) * np.abs(s)
    upper = s >= 0.0

    def at_s_and_minus_s(d, rot, pre):
        # from d at r|s|: its values at r s and -r s
        minus = rot * d + pre * np.conj(d)
        return np.where(upper, d, minus).reshape(shape), \
            np.where(upper, minus, d).reshape(shape)

    if derivatives:
        f, df = pcf_d(nu, radii, derivative=True, theta=np.angle(ray))
    else:
        f = pcf_d(nu, radii, theta=np.angle(ray))
    fp, fp_mirror = at_s_and_minus_s(f, rot, pre)
    modes = (fp, np.conj(fp_mirror))
    if derivatives:
        force = abs(cfg.motion.force)
        dfp, dfp_mirror = at_s_and_minus_s(df, -rot, 1j * pre)
        modes += (dfp * ray * force, -np.conj(dfp_mirror * ray * force))
    if cfg.motion.force > 0:
        return modes
    return tuple(np.conj(m) if k < 2 else -np.conj(m) for k, m in enumerate(modes))


def mode_coeffs(p, cfg: FieldPacketConfig) -> ModeCoefficients:
    """Projection coefficients c+-(p) of the initial Gaussian, at arbitrary p.

    c+- = psi_G(p) conj(f+-(p)) / (|f+(p)|^2 + |f-(p)|^2), so that
    c+ f+ + c- f- is the unit-norm ``gauss_spectrum`` psi_G at t = 0; the
    delta functions over transverse momenta are absorbed into the
    one-dimensional representation.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    spectrum = gauss_spectrum(p, cfg.sigma0, cfg.motion.p0, cfg.motion.x0)
    fp, fm = mode_pair(cfg, p)
    # combine at unit scale: |D| reaches e^{pi M^2/8F}-ish magnitudes, so
    # |f|^2 would overflow for weak forces even though c+- f+- is O(1)
    scale = np.maximum(np.abs(fp), np.abs(fm))
    fpn, fmn = fp / scale, fm / scale
    g = np.abs(fpn) ** 2 + np.abs(fmn) ** 2
    return ModeCoefficients(p=p, c_plus=spectrum * np.conj(fpn) / (g * scale),
                            c_minus=spectrum * np.conj(fmn) / (g * scale))


def field_mode_basis(cfg: FieldPacketConfig, x_extent: float, t_max: float) -> ModeSum:
    """The packet's ModeSum of c+ f+ + c- f- on its momentum nodes; the modes
    without ``derivatives`` are the same values without the D' of their
    D_nu pass, and a column of times is one ``mode_pair`` call.  The modes
    at each scalar time are kept, and the modes alone at that time are
    those kept values: the spectrum of a time whose slice was taken
    evaluates no D_nu.

    The nodes are the central nodes of a lattice of half-width
    _WINDOW_FACTOR/sigma0 about p0 and of at least 401 nodes: those within
    _TAIL_WIDTH/sigma0 of p0, where the Gaussian spectrum falls to _TAIL_EPS
    of its peak, with their own trapezoid weights.
    """
    window = _WINDOW_FACTOR / cfg.sigma0
    dp = _node_spacing(x_extent, t_max, 1.0 / cfg.sigma0)
    count = max(int(2 * window / dp) | 1, 401)
    lattice, _ = momentum_grid(cfg.motion.p0, window, count)
    centre = count // 2  # the lattice's step is window/centre
    reach = int(centre * _TAIL_WIDTH / _WINDOW_FACTOR)
    p = lattice[centre - reach:centre + reach + 1]
    weights = trapezoid_weights(p)
    c = mode_coeffs(p, cfg)
    kept = {}

    def modes(t, derivatives):
        if not derivatives and np.ndim(t) == 0 and t in kept:
            return kept[t]
        pair = mode_pair(cfg, p + cfg.motion.force * t, derivatives)
        psi = c.c_plus * pair[0] + c.c_minus * pair[1]
        if np.ndim(t) == 0:
            kept[t] = psi
        if not derivatives:
            return psi
        return psi, c.c_plus * pair[2] + c.c_minus * pair[3]

    return ModeSum(p=p, weights=weights, modes=modes)
