"""Complex special functions: modified Bessel K0/K1 and parabolic cylinder D_nu.

K0 and K1 come from ``scipy.special.kve``, the exponent-scaled AMOS routine
exp(z) K_n(z), evaluated on 1-d arrays.  The scaled form is public
(``scaled=True``) so that callers can carry exponents in log space: K1 of
the closed packet's normalization underflows for vartheta of a few hundred.

D_nu(z) stitches four regimes:

* small |z|       Maclaurin series via Kummer's M (any argument),
* large |z|       Poincare expansion e^{-z^2/4} z^nu sum_s (-nu)_{2s} (-2z^2)^{-s}/s!,
* band, dominant rays    Taylor marching of Weber's equation along the ray,
* band, subdominant rays  rotated-contour integral representation (marching
                   there would amplify seed error by the dominant/recessive
                   ratio),

with |arg z| > pi/2 folded into the right half-plane first.  Accuracy is
tuned for the diagonal rays (+-1 +- i) s used by the uniform-field modes
(observed ~1e-11 there) and degrades gracefully off them; configurations
whose subdominant solution falls below double-precision conditioning raise
SpecFunAccuracyError instead of returning a silently wrong value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import kve, rgamma

__all__ = [
    "SpecFunDomainError",
    "SpecFunAccuracyError",
    "PcfOrder",
    "bessel_k1",
    "bessel_k0",
    "pcf_d",
    "pcf_d_dz",
]

SQRT_PI = np.sqrt(np.pi)
SQRT_2PI = np.sqrt(2.0 * np.pi)

# pcf regime boundaries, tuned against a high-precision reference.  The march
# seed sits deep inside the series region because seed error is amplified by
# the dominant-to-recessive solution ratio (about e^{2 a |arg z|}) by the end
# of the band.
_R_SERIES = 1.5
_R_ASYMP = 8.0
_MARCH_ORDER = 36
_MARCH_STEP = 0.5


class SpecFunDomainError(ValueError):
    pass


class SpecFunAccuracyError(ArithmeticError):
    """No evaluation regime could reach the requested accuracy."""


@dataclass(frozen=True)
class PcfOrder:
    """Order of a parabolic cylinder mode function.

    ``for_uniform_field`` builds the conjugate pair of orders
    -1/2 -+ i*m_sq/(2*force) used by the mode equation in a uniform field;
    the real part is exactly -1/2 by construction.
    """

    nu: complex

    @classmethod
    def for_uniform_field(cls, m_sq: float, force: float) -> tuple["PcfOrder", "PcfOrder"]:
        if force == 0:
            raise SpecFunDomainError("force must be nonzero")
        a = m_sq / (2.0 * force)
        return cls(complex(-0.5, -a)), cls(complex(-0.5, a))


# ---------------------------------------------------------------------------
# modified Bessel functions (AMOS, through scipy)
# ---------------------------------------------------------------------------

def _bessel_k(z, order: int, scaled: bool):
    z = np.asarray(z, dtype=complex)
    # evaluated on 1-d arrays only: numpy takes another complex-multiply loop
    # for 0-d operands, so a scalar call would round differently
    zf = np.atleast_1d(z)
    if np.any(np.real(zf) <= 0.0):
        bad = zf[np.real(zf) <= 0.0][0]
        raise SpecFunDomainError(f"K_{order} requires Re z > 0, got {bad!r}")
    val = kve(order, zf)
    if not scaled:
        val = val * np.exp(-zf)
    return val[0] if z.ndim == 0 else val.reshape(z.shape)


def bessel_k1(z, scaled: bool = False):
    """Modified Bessel K1 for complex z with Re z > 0 (scalar or array);
    with ``scaled``, exp(z) K1(z), which neither underflows nor overflows."""
    return _bessel_k(z, 1, scaled)


def bessel_k0(z, scaled: bool = False):
    """Modified Bessel K0 for complex z with Re z > 0 (scalar or array);
    with ``scaled``, exp(z) K0(z)."""
    return _bessel_k(z, 0, scaled)


# ---------------------------------------------------------------------------
# parabolic cylinder D_nu
# ---------------------------------------------------------------------------

def _kummer_m(a: complex, b: complex, x: np.ndarray, max_terms: int = 700) -> np.ndarray:
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(max_terms):
        term = term * ((a + k) / (b + k)) * x / (k + 1.0)
        total = total + term
        if np.all(np.abs(term) < 1e-18 * (np.abs(total) + 1e-300)):
            break
    return total


def _maclaurin(nu: complex, z: np.ndarray) -> np.ndarray:
    w = 0.5 * z * z
    even = _kummer_m(-nu / 2.0, 0.5, w) * rgamma((1.0 - nu) / 2.0)
    odd = _kummer_m((1.0 - nu) / 2.0, 1.5, w) * rgamma(-nu / 2.0)
    return 2.0 ** (nu / 2.0) * SQRT_PI * np.exp(-0.5 * w) * (even - np.sqrt(2.0) * z * odd)


def _asymptotic(nu: complex, z: np.ndarray, max_terms: int = 60):
    """One-piece Poincare expansion; returns (value, per-point truncation ratio)."""
    inv2z2 = 1.0 / (2.0 * z * z)
    term = np.ones_like(z)
    total = np.ones_like(z)
    last_live = np.ones(z.shape)
    dead = np.zeros(z.shape, dtype=bool)
    for s in range(max_terms):
        new_term = term * (-(-nu + 2 * s) * (-nu + 2 * s + 1) / (s + 1.0)) * inv2z2
        dead = dead | (np.abs(new_term) > np.abs(term))
        term = np.where(dead, 0.0, new_term)
        last_live = np.where(dead, last_live, np.abs(term))
        total = total + term
        if np.all(dead | (np.abs(term) < 1e-18 * np.abs(total))):
            break
    trunc = last_live / np.maximum(np.abs(total), 1e-300)
    return np.exp(-0.25 * z * z) * z ** nu * total, trunc


def _march_ray(nu: complex, theta: float, radii: np.ndarray, r_from: float,
               seed_d: complex, seed_dp: complex) -> np.ndarray:
    """Taylor-march Weber's equation D'' = (z^2/4 - nu - 1/2) D radially.

    Checkpoints advance in steps of _MARCH_STEP carrying (D, D'); targets
    inside each step are evaluated from the step's Taylor polynomial.
    """
    direction = np.exp(1j * theta)
    radii = np.asarray(radii, dtype=float)
    sign = 1.0 if (radii.size == 0 or radii[-1] >= r_from) else -1.0
    out = np.empty(len(radii), dtype=complex)
    d, dp = seed_d, seed_dp
    r_cur = r_from
    n_ord = _MARCH_ORDER
    a = np.empty(n_ord + 2, dtype=complex)
    remaining = np.arange(len(radii))
    guard = 0
    while remaining.size:
        guard += 1
        if guard > 200:  # pragma: no cover - structural safety net
            raise SpecFunAccuracyError("pcf march failed to advance")
        z0 = r_cur * direction
        a[0] = d
        a[1] = dp
        q0 = 0.25 * z0 * z0 - nu - 0.5
        for n in range(n_ord):
            s = q0 * a[n]
            if n >= 1:
                s = s + 0.5 * z0 * a[n - 1]
            if n >= 2:
                s = s + 0.25 * a[n - 2]
            a[n + 2] = s / ((n + 2.0) * (n + 1.0))
        dist = np.abs(radii[remaining] - r_cur)
        here = remaining[dist <= _MARCH_STEP + 1e-12]
        if here.size:
            h_t = (radii[here] - r_cur) * direction
            val = np.zeros(len(here), dtype=complex)
            for n in range(n_ord + 1, -1, -1):
                val = val * h_t + a[n]
            out[here] = val
            remaining = remaining[dist > _MARCH_STEP + 1e-12]
        h = sign * _MARCH_STEP * direction
        val = 0.0 + 0.0j
        der = 0.0 + 0.0j
        for n in range(n_ord + 1, 0, -1):
            val = val * h + a[n]
            der = der * h + n * a[n]
        val = val * h + a[0]
        d, dp = val, der
        r_cur += sign * _MARCH_STEP
    return out


def _seed(nu: complex, theta: float, r: float, use_asymptotic: bool,
          by_integral: bool = False):
    z0 = np.array([r * np.exp(1j * theta)])
    if by_integral:
        d0 = _band_integral(nu, z0)[0]
        dm1 = _band_integral(nu - 1.0, z0)[0]
    elif use_asymptotic:
        d0 = _asymptotic(nu, z0)[0][0]
        dm1 = _asymptotic(nu - 1.0, z0)[0][0]
    else:
        d0 = _maclaurin(nu, z0)[0]
        dm1 = _maclaurin(nu - 1.0, z0)[0]
    dp0 = nu * dm1 - 0.5 * z0[0] * d0
    return d0, dp0


def _band_integral(nu: complex, z: np.ndarray, level: int | None = None,
                   tau_lo: float = -4.8, tau_hi: float = 3.0) -> np.ndarray:
    """D_nu in the band by the rotated-contour integral representation
    D_nu(z) = e^{-z^2/4}/Gamma(-nu) int_0^inf e^{-zt - t^2/2} t^{-nu-1} dt.

    The contour ray t = e^{-i arg(z)/2} u keeps the linear decay bounded away
    from oscillation; exp-sinh nodes resolve the u^{-Re nu - 1} endpoint and
    the u^{-i Im nu} endpoint oscillation.  Unlike marching, the error here
    is relative to the recessive solution itself, so accuracy does not
    degrade on rays where D_nu is exponentially subdominant.  Requires
    Re nu < 0; callers lift higher orders with the z-ladder.
    """
    if nu.real >= 0.0:
        # D_nu = z D_{nu-1} - (nu-1) D_{nu-2}, recursing into Re nu < 0
        return (z * _band_integral(nu - 1.0, z, level, tau_lo, tau_hi)
                - (nu - 1.0) * _band_integral(nu - 2.0, z, level, tau_lo, tau_hi))
    if level is None:
        # the endpoint oscillation u^{-i Im nu} needs nodes scaling with |Im nu|
        level = 12 + max(0, int(np.ceil(np.log2(max(abs(nu.imag), 1.0) / 6.0))))
    rot = np.exp(-0.5j * np.angle(z))
    n = (1 << level) + 1
    tau = np.linspace(tau_lo, tau_hi, n)
    u = np.exp(0.5 * np.pi * np.sinh(tau))
    w = u * (0.5 * np.pi) * np.cosh(tau) * (tau[1] - tau[0])
    t = rot[:, None] * u[None, :]
    integrand = np.exp(-z[:, None] * t - 0.5 * t * t + (-nu - 1.0) * np.log(t))
    total = np.sum(integrand * w, axis=1) * rot
    return np.exp(-0.25 * z * z) * total * rgamma(-nu)


def _pcf_right_half_any_arg(nu: complex, z: np.ndarray) -> np.ndarray:
    """D_nu on |arg z| <= pi/2, plus small-|z| points of any argument."""
    res = np.empty_like(z)
    r = np.abs(z)
    small = r <= _R_SERIES
    big = r >= _R_ASYMP
    band = ~(small | big)
    if np.any(small):
        res[small] = _maclaurin(nu, z[small])
    if np.any(big):
        vals, trunc = _asymptotic(nu, z[big])
        poor = trunc > 1e-11
        if np.any(poor):
            # |nu| too large for the expansion at this radius
            zb = z[big][poor]
            if abs(nu.imag) > 8.0 and np.any(np.angle(zb) * nu.imag > 1e-12):
                raise SpecFunAccuracyError(
                    f"D_nu for nu={nu} at |z|~{float(np.abs(zb[0])):.3g} on a "
                    "subdominant ray exceeds double-precision conditioning"
                )
            vals[poor] = _band_integral(nu, zb)
        res[big] = vals
    if np.any(band):
        zb = z[band]
        vals = np.empty_like(zb)
        angles = np.angle(zb)
        order = np.argsort(angles, kind="stable")
        zo, ao = zb[order], angles[order]
        breaks = np.where(np.abs(np.diff(ao)) > 1e-12)[0] + 1
        for g in np.split(np.arange(len(zo)), breaks):
            theta = ao[g[0]]
            radii = np.abs(zo[g])
            if theta * nu.imag > 1e-12:
                # D_nu is exponentially subdominant on this ray; marching
                # would amplify seed error by the dominant/recessive ratio,
                # so integrate instead.  Past |Im nu| ~ 8 even the integral
                # cancels beyond double precision.
                if abs(nu.imag) > 8.0:
                    raise SpecFunAccuracyError(
                        f"D_nu for nu={nu} at |z|~{radii[0]:.3g} on the "
                        "subdominant ray exceeds double-precision conditioning"
                    )
                vals[g] = _band_integral(nu, zo[g])
                continue
            # march away from the locally dominant solution: outward where
            # e^{-z^2/4} grows (Re z^2 < 0), inward from the asymptotic seed
            # where it decays.
            outward = np.cos(2.0 * theta) <= 0.25
            if outward:
                idx = np.argsort(radii)
                d0, dp0 = _seed(nu, theta, _R_SERIES, use_asymptotic=False)
                got = _march_ray(nu, theta, radii[idx], _R_SERIES, d0, dp0)
            else:
                idx = np.argsort(-radii)
                d0, dp0 = _seed(nu, theta, _R_ASYMP, use_asymptotic=False,
                                by_integral=True)
                got = _march_ray(nu, theta, radii[idx], _R_ASYMP, d0, dp0)
            tmp = np.empty_like(got)
            tmp[idx] = got
            vals[g] = tmp
        res[band] = vals
    return res


def pcf_d(nu, z):
    """Whittaker parabolic cylinder function D_nu(z), complex nu and z.

    Vectorized over z.  For |arg z| > pi/2 the value is folded into the right
    half-plane with
    ``D_nu(z) = e^{+-i pi nu} D_nu(-z)
                + sqrt(2 pi)/Gamma(-nu) e^{+-i pi (nu+1)/2} D_{-nu-1}(-+ i z)``
    (upper sign for Im z >= 0).
    """
    nu = complex(nu)
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zf = np.atleast_1d(z).ravel()
    out = np.empty_like(zf)

    # the Maclaurin series converges for every arg, so only fold outside it
    left = (np.abs(np.angle(zf)) > 0.5 * np.pi + 1e-14) & (np.abs(zf) > _R_SERIES)
    if np.any(left):
        zl = zf[left]
        sgn = np.where(np.imag(zl) >= 0.0, 1.0, -1.0)
        adverse = sgn * nu.imag < 0.0
        if np.any(adverse) and abs(nu.imag) > 6.8:
            zbad = zl[adverse][0]
            raise SpecFunAccuracyError(
                f"left-half-plane folding for nu={nu} at z={zbad:.4g} would "
                f"lose ~{np.pi * abs(nu.imag) / np.log(10.0):.0f} digits to "
                "connection-formula cancellation"
            )
        t1 = np.exp(1j * np.pi * nu * sgn) * pcf_d(nu, -zl)
        t2 = (SQRT_2PI * rgamma(-nu)) * np.exp(1j * np.pi * (nu + 1.0) / 2.0 * sgn) \
            * pcf_d(-nu - 1.0, -1j * sgn * zl)
        out[left] = t1 + t2
    if np.any(~left):
        out[~left] = _pcf_right_half_any_arg(nu, zf[~left])

    if scalar:
        return complex(out[0])
    return out.reshape(z.shape)


def pcf_d_dz(nu, z):
    """d/dz of D_nu(z) via the ladder relation D' = nu D_{nu-1} - (z/2) D_nu."""
    nu = complex(nu)
    z = np.asarray(z, dtype=complex)
    return nu * pcf_d(nu - 1.0, z) - 0.5 * z * pcf_d(nu, z)
