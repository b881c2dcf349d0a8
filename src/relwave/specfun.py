"""Complex special functions: modified Bessel K0/K1 and parabolic cylinder D_nu.

K0 and K1 come from one numpy pass that returns both, evaluated on 1-d
arrays: the series of DLMF 10.31.1-2 for |z| < 2, else DLMF 10.32.8 with
u = y^2, a half-range Gauss-Hermite sum of (1 + y^2/2z)^(-+1/2) whose node
count falls with |z| and whose one complex sqrt per node serves both
orders.  Within 3e-15 of mpmath for |z| in [1e-3, 1e4] and |arg z| <=
0.499 pi.  The exponent-scaled form exp(z) K_n(z) is public
(``scaled=True``) so that callers can carry exponents in log space: K1 of
the closed packet's normalization underflows for vartheta of a few
hundred.  The node tables are built on the first K call.

The complex 1/Gamma of the D_nu series and connection formula comes from
``mpmath.rgamma`` at 53-bit working precision, cached per argument: within
one ulp of the exact value, 0 at the poles, and non-finite where it leaves
double range, which the callers turn into SpecFunAccuracyError.

D_nu(z) folds |arg z| > pi/2 into the right half-plane first, outside the
Maclaurin disc.  The fold's connection-formula factors and its one guard
live in ``_fold_factors``, which ``field_packets.mode_pair`` calls too,
before any D_nu: it raises SpecFunAccuracyError where the fold would cancel
beyond double precision or a factor leaves double range.  The points are
then grouped by ray (arg z), and one router, ``_pcf_ray``, reads each
point's regime from its radius:

* |z| <= _R_SERIES  Maclaurin series via Kummer's M (any argument),
* dominant rays     (|nu| <= _MARCH_NU_MAX) Taylor march of Weber's equation
                    outward along the ray, up to the ray's march end where
                    the Poincare expansion e^{-z^2/4} z^nu sum_s (-nu)_{2s}
                    (-2z^2)^{-s}/s! truncates within 1e-11, and that
                    expansion at and past it, with no per-point test,
* other rays        the Poincare expansion past _R_ASYMP where it truncates
                    within 1e-11, else the march on dominant rays (it raises
                    past _MARCH_NU_MAX) or ``mpmath.pcfd`` at 53-bit working
                    precision, one point at a time (a march there would
                    amplify seed error by the dominant/recessive ratio).

``pcf_d(nu, rho, theta=theta)`` declares one ray, rho e^{i theta} for real
radii rho >= 0, which needs no grouping.  The Poincare series is summed in
u = 1/(2 rho^2), its coefficients rotated once per (nu, theta).  Its
prefactor e^{-z^2/4} z^nu is formed from the caller's coordinates: on a
declared ray as a real modulus and phase, with no complex log, exp or
power; for complex z from that z (rho and theta round its phase |z|^2/4
otherwise).  The uniform-field mode rays are declared (within 1e-11 +
2^-51 |z|^2/4 of mpmath for forces down to 0.01, the second term the
rounding of that phase); mpmath serves only points of other rays, at a
few ms each.

Both series (DLMF 12.4, 12.9) are Horner passes over per-order tables of
coefficients, so a value depends on its point alone: the Maclaurin series
takes one term count per order, enough for every |z| <= _R_SERIES; a
Poincare point stops at its first term below 1e-18 or before its first
growing term, a count read from the table.  The march does not depend on
its targets: the Taylor coefficients at its checkpoints are computed once
per ray (order, angle) and cached, and each call only evaluates its
targets' polynomials.  ``pcf_d(..., derivative=True)`` takes D'_nu from the
same pass as D_nu, which keeps its bits: the differentiated Maclaurin
series, the termwise-differentiated Poincare series and the derivative of
the march's Taylor polynomial, each in the loop of its D_nu (mpmath points
take the ladder relation).  ``pcf_d_dz``, the ladder
relation D' = nu D_{nu-1} - (z/2) D_nu on a second order, is the
reference.  Where double precision cannot hold the answer (the march past
|nu| = _MARCH_NU_MAX, a value that leaves double range) a
SpecFunAccuracyError is raised instead of a silently wrong value.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath
import numpy as np

__all__ = [
    "SpecFunDomainError",
    "SpecFunAccuracyError",
    "bessel_k0_k1",
    "bessel_k1",
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
_R_STEP = 12.0  # past it the march's step shrinks as 1/|z|
# the largest |nu| the march serves within 1e-11: both mode orders of every
# force >= 0.01 (|nu| = 50.02; at 0.0095, |nu| = 52.6, it is 1.05e-11 off)
_MARCH_NU_MAX = 50.1
_POINCARE_TOL = 1e-11  # the truncation of a Poincare point and of the march's end
# term cap of the Poincare series
_POINCARE_TERMS = 60
# K0/K1: the series below |z| = _K_SERIES_R, else the Gauss-Hermite sum with
# _K_NODES[b] half-range nodes on the band b of |z| that _K_BAND_EDGES split
# (32 nodes were 1.1e-14 off at |z| = 2, arg z = 0.499 pi; 36 are 1.7e-15)
_K_SERIES_R = 2.0
_K_SERIES_TERMS = 15  # w^k/(k!)^2 < 3e-20 at k = 15, w = |z|^2/4 <= 1
_K_BAND_EDGES = (3.0, 5.0)
_K_NODES = (36, 24, 16)


class SpecFunDomainError(ValueError):
    pass


class SpecFunAccuracyError(ArithmeticError):
    """No evaluation regime could reach the requested accuracy."""


# ---------------------------------------------------------------------------
# modified Bessel functions K0 and K1
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _k_tables():
    """The series coefficients of K0 and K1 and the half-range Gauss-Hermite
    tables (y^2, w, w y^2) of each band of ``_K_NODES``.  Built on the first
    K call, so a run after that loads no module."""
    from numpy.polynomial.hermite import hermgauss

    k = np.arange(_K_SERIES_TERMS)
    fact = np.cumprod(np.maximum(k, 1).astype(float))
    harmonic = np.concatenate([[0.0], np.cumsum(1.0 / np.arange(1.0, _K_SERIES_TERMS + 1))])
    i0 = 1.0 / (fact * fact)  # I0(z) = sum i0_k w^k, w = z^2/4
    i1 = i0 / (k + 1.0)  # I1(z) = (z/2) sum i1_k w^k
    # DLMF 10.31.2 and 10.31.1 at n = 1: psi(k+1) + psi(k+2) = H_k + H_{k+1} - 2 gamma
    series = (i0, harmonic[:-1] * i0, i1,
              0.5 * (harmonic[:-1] + harmonic[1:] - 2.0 * np.euler_gamma) * i1)
    nodes = []
    for n in _K_NODES:
        y, w = hermgauss(2 * n)
        y, w = y[n:], 2.0 * w[n:]
        nodes.append((y * y, w, w * y * y))
    for a in series + tuple(a for band in nodes for a in band):
        a.flags.writeable = False
    return series, tuple(nodes)


def _horner(c: np.ndarray, w: np.ndarray, derivative: bool = False):
    """sum_k c_k w^k by Horner's rule; with ``derivative`` also its d/dw,
    from the same pass (the sum keeps its bits)."""
    acc = np.full_like(w, c[-1])
    dacc = np.zeros_like(w) if derivative else None
    for ck in c[-2::-1]:
        if derivative:
            dacc = dacc * w + acc
        acc = acc * w + ck
    return (acc, dacc) if derivative else acc


def _k_series(z: np.ndarray):
    """K0(z) and K1(z) for |z| < _K_SERIES_R by DLMF 10.31.2 and 10.31.1."""
    i0, s0, i1, s1 = _k_tables()[0]
    w = 0.25 * z * z
    log_half = np.log(0.5 * z)
    k0 = _horner(s0, w) - (log_half + np.euler_gamma) * _horner(i0, w)
    k1 = 1.0 / z + 0.5 * z * (log_half * _horner(i1, w) - _horner(s1, w))
    return k0, k1


def _k_hermite(z: np.ndarray, y2: np.ndarray, w0: np.ndarray, w1: np.ndarray):
    """exp(z) K0(z) and exp(z) K1(z) by DLMF 10.32.8 with u = y^2:
    exp(z) K_n(z) = (2z)^{-1/2} 2^n sum_j w_j y_j^{2n} (1 + y_j^2/2z)^{n-1/2},
    one complex sqrt per node for both orders."""
    inv = 0.5 / z
    acc0, acc1 = np.zeros_like(z), np.zeros_like(z)
    for j in range(len(y2)):
        s = np.sqrt(1.0 + y2[j] * inv)
        acc0 = acc0 + w0[j] / s
        acc1 = acc1 + w1[j] * s
    root = np.sqrt(2.0 * z)
    return acc0 / root, 2.0 * acc1 / root


def bessel_k0_k1(z, scaled: bool = False):
    """(K0(z), K1(z)) for complex z with Re z > 0 (scalar or array); with
    ``scaled``, exp(z) K0(z) and exp(z) K1(z), which neither underflow nor
    overflow.  Elementwise over 1-d arrays, so a point's value does not
    depend on the other points of the call."""
    z = np.asarray(z, dtype=complex)
    # evaluated on 1-d arrays only: numpy takes another complex-multiply loop
    # for 0-d operands, so a scalar call would round differently
    zf = np.atleast_1d(z).ravel()
    if np.any(np.real(zf) <= 0.0):
        bad = zf[np.real(zf) <= 0.0][0]
        raise SpecFunDomainError(f"K0/K1 require Re z > 0, got {bad!r}")
    k0, k1 = np.empty_like(zf), np.empty_like(zf)
    r = np.abs(zf)
    small = r < _K_SERIES_R
    near, far = np.flatnonzero(small), np.flatnonzero(~small)
    if near.size:
        e = np.exp(zf[near])
        k0[near], k1[near] = (v * e for v in _k_series(zf[near]))
    band = np.searchsorted(_K_BAND_EDGES, r[far], side="right")  # NaN: the last
    for b, nodes in enumerate(_k_tables()[1]):
        idx = far[band == b]
        if idx.size:
            k0[idx], k1[idx] = _k_hermite(zf[idx], *nodes)
    if not scaled:
        e = np.exp(-zf)
        k0, k1 = k0 * e, k1 * e
    if z.ndim == 0:
        return k0[0], k1[0]
    return k0.reshape(z.shape), k1.reshape(z.shape)


def bessel_k1(z, scaled: bool = False):
    """Modified Bessel K1 for complex z with Re z > 0 (scalar or array);
    with ``scaled``, exp(z) K1(z), which neither underflows nor overflows."""
    return bessel_k0_k1(z, scaled)[1]


# ---------------------------------------------------------------------------
# parabolic cylinder D_nu
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _rgamma(z: complex) -> np.complex128:
    """1/Gamma(z), each part within one ulp (observed: 0.56): 0 at the
    poles, and an infinite part where the value leaves double range."""
    with mpmath.workprec(53):
        return np.complex128(complex(mpmath.rgamma(mpmath.mpc(z))))


@lru_cache(maxsize=128)
def _maclaurin_table(nu: complex):
    """Coefficients c_k of Kummer's M(-nu/2, 1/2, w) and M((1-nu)/2, 3/2, w),
    w = z^2/2, each up to the first term past the largest with
    |c_k| (_R_SERIES^2/2)^k < 1e-18: one term count for every |z| <= _R_SERIES."""
    w_max = 0.5 * _R_SERIES ** 2
    tables = []
    for a, b in ((-nu / 2.0, 0.5), ((1.0 - nu) / 2.0, 1.5)):
        c, ratio = [1.0 + 0.0j], 1.0
        while abs(c[-1]) * w_max ** (len(c) - 1) >= 1e-18 or abs(ratio) * w_max >= 1.0:
            if not np.isfinite(c[-1]):
                raise SpecFunAccuracyError(f"Maclaurin series of D_nu overflows for nu={nu}")
            ratio = (a + len(c) - 1) / (b + len(c) - 1) / len(c)
            c.append(c[-1] * ratio)
        tables.append(np.array(c))
        tables[-1].flags.writeable = False
    return tuple(tables)


def _maclaurin(nu: complex, z: np.ndarray, derivative: bool = False):
    """D_nu by its Maclaurin series (DLMF 12.4), the even and odd Kummer M
    summed by one Horner pass over ``_maclaurin_table``; with
    ``derivative``, (D_nu, D'_nu), D' from the differentiated series of the
    same pass: d/dz M(w) = z M'(w) at w = z^2/2."""
    w = 0.5 * z * z
    series = [_horner(c, w, derivative) for c in _maclaurin_table(nu)]
    if derivative:
        (even_m, even_dm), (odd_m, odd_dm) = series
    else:
        even_m, odd_m = series
    # past |Im nu| ~ 900 the 1/Gamma factors, and D_nu with them, leave
    # double range; inf * 0 would be NaN
    with np.errstate(over="ignore", invalid="ignore"):
        g_even, g_odd = _rgamma((1.0 - nu) / 2.0), _rgamma(-nu / 2.0)
        even = even_m * g_even
        odd = odd_m * g_odd
        pre = 2.0 ** (nu / 2.0) * SQRT_PI * np.exp(-0.5 * w)
        bracket = even - np.sqrt(2.0) * z * odd
        val = pre * bracket
        if derivative:
            d_bracket = (z * (even_dm * g_even)
                         - np.sqrt(2.0) * (odd + z * z * (odd_dm * g_odd)))
            val = (val, pre * (d_bracket - 0.5 * z * bracket))
    if not np.all(np.isfinite(val)):
        raise SpecFunAccuracyError(
            f"Maclaurin series of D_nu for nu={nu} overflows double precision")
    return val


@lru_cache(maxsize=128)
def _poincare_table(nu: complex):
    """Poincare term s is c_s (2z^2)^{-s}, c_s = prod_{k<s} r_k, r_k =
    -(-nu+2k)(-nu+2k+1)/(k+1).  Returns the finite c_s (s <= _POINCARE_TERMS),
    log|c_s|, and the running maxima grow[k] of log|r_k| and stop[k] of
    (ln 1e-18 - log|c_{k+1}|)/(k+1): at lam = log|1/(2z^2)|, term k+1 first
    outgrows term k where grow[k] > -lam, and is below 1e-18 where stop[k] > lam."""
    k = np.arange(_POINCARE_TERMS)
    r = -(-nu + 2 * k) * (-nu + 2 * k + 1) / (k + 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_r = np.log(np.abs(r))
        c = np.concatenate([[1.0 + 0.0j], np.cumprod(r)])
    n = np.count_nonzero(np.isfinite(c))  # c_s leaves double range past |nu| ~ 2000
    log_c = np.concatenate([[0.0], np.cumsum(log_r)])[:n]
    table = (c[:n], log_c, np.maximum.accumulate(log_r[:n - 1]),
             np.maximum.accumulate((np.log(1e-18) - log_c[1:]) / (k[:n - 1] + 1.0)))
    for a in table:
        a.flags.writeable = False
    return table


def _poincare_terms(nu: complex, lam: np.ndarray) -> np.ndarray:
    """Each point's Poincare term count at lam = log|1/(2z^2)|: to its first
    term below 1e-18 or before its first growing term (``_poincare_table``)."""
    c, _, grow, stop = _poincare_table(nu)
    return np.minimum(np.minimum(np.searchsorted(grow, -lam, "right") + 1,
                                 np.searchsorted(stop, lam, "right") + 2), len(c))


def _derivative_coefficients(nu: complex, c: np.ndarray) -> np.ndarray:
    """d_s = c_s + (8(s-1) - 4 nu) c_{s-1}: the Poincare series of D'_nu is
    -(z/2) e^{-z^2/4} z^nu sum_s d_s w^s, w = 1/(2z^2)."""
    return c + np.concatenate([[0.0], (8.0 * np.arange(len(c) - 1) - 4.0 * nu) * c[:-1]])


def _sorted_series(coefs, w: np.ndarray, n: np.ndarray):
    """sum_{s < n_i} c_s w_i^s for each coefficient row c of ``coefs``, one
    Horner pass over the points sorted by falling term count n (each point
    stops at its own count, so its value does not depend on the others).
    No product is taken in place: numpy's in-place complex multiply rounds a
    1-element array otherwise than a longer one."""
    order = np.argsort(-n, kind="stable")
    w_sorted = w[order]
    live = np.searchsorted(-n[order], -np.arange(n.max()))  # points with a term s
    sums, tmp = [], np.empty_like(w_sorted)
    for c in coefs:
        acc = np.zeros_like(w_sorted)
        for s in range(len(live) - 1, 0, -1):
            k = live[s]
            np.add(acc[:k], c[s], out=tmp[:k])
            np.multiply(tmp[:k], w_sorted[:k], out=acc[:k])
        total = np.empty_like(acc)
        total[order] = 1.0 + acc
        sums.append(total)
    return sums


@lru_cache(maxsize=128)
def _poincare_ray_table(nu: complex, theta: float):
    """The coefficients c_s and d_s of the Poincare series of D_nu and D'_nu
    rotated onto the ray arg z = theta: there w = 1/(2z^2) = e^{-2i theta} u
    with u = 1/(2 rho^2) real, so c_s w^s = (c_s e^{-2is theta}) u^s."""
    c = _poincare_table(nu)[0]
    rot = np.exp(-2j * theta * np.arange(len(c)))
    table = (c * rot, _derivative_coefficients(nu, c) * rot)
    for a in table:
        a.flags.writeable = False
    return table


def _poincare_ray(nu: complex, theta: float, rho: np.ndarray, derivative: bool = False,
                  z=None, ratio: bool = False):
    """The Poincare expansion at z = rho e^{i theta}: (value, truncation
    ratio), the ratio (last term kept over the sum) with ``ratio``, else
    None.  The series is summed in u = 1/(2 rho^2) over
    ``_poincare_ray_table``, each point to its own term count.  The prefactor
    e^{-z^2/4} z^nu is formed from the caller's coordinates: from its complex
    points ``z``, if it has them (rho and theta round the phase |z|^2/4
    otherwise), else as the modulus exp(Re nu ln rho - Im nu theta - rho^2
    cos(2 theta)/4) and phase Im nu ln rho + Re nu theta - rho^2 sin(2
    theta)/4, with no complex log, exp or power.  With ``derivative`` the
    value is (D_nu, D'_nu), D' the termwise derivative: with w = 1/(2z^2),
    S = sum_s c_s w^s and T = sum_s s c_s w^s, D' = e^{-z^2/4} z^nu [(nu/z -
    z/2) S - (2/z) T] = -(z/2) e^{-z^2/4} z^nu sum_s d_s w^s
    (``_derivative_coefficients``) to each point's term count.  (Summing S
    and T to that count instead keeps half of term n and doubles the
    truncation error near |z| = _R_ASYMP.)"""
    log_rho = np.log(rho)
    rho2 = rho * rho
    # complex u: numpy's complex-by-complex loop beats complex-by-real,
    # whose operand is cast on every call; the product's bits are the same
    u = (0.5 / rho2).astype(complex)
    lam = -(np.log(2.0) + 2.0 * log_rho)
    n = _poincare_terms(nu, lam)
    coefs = _poincare_ray_table(nu, theta)[:1 + derivative]
    total, *dtotal = _sorted_series(coefs, u, n)
    trunc = (np.exp(_poincare_table(nu)[1][n - 1] + (n - 1) * lam)
             / np.maximum(np.abs(total), 1e-300)) if ratio else None
    if z is not None:
        pre = np.exp(-0.25 * z * z) * z ** nu
    else:
        modulus = np.exp(nu.real * log_rho - nu.imag * theta - 0.25 * np.cos(2.0 * theta) * rho2)
        phase = nu.imag * log_rho + nu.real * theta - 0.25 * np.sin(2.0 * theta) * rho2
        pre = np.empty_like(total)
        pre.real = modulus * np.cos(phase)
        pre.imag = modulus * np.sin(phase)
    if not derivative:
        return pre * total, trunc
    z = rho * np.exp(1j * theta) if z is None else z
    return (pre * total, -0.5 * z * pre * dtotal[0]), trunc


@lru_cache(maxsize=128)
def _march_checkpoints(nu: complex, theta: float):
    """Checkpoint radii, reaches and Taylor coefficients of D_nu along one ray.

    Weber's equation D'' = (z^2/4 - nu - 1/2) D is marched outward from the
    Maclaurin seed at _R_SERIES, carrying (D, D'), in steps of _MARCH_STEP
    that shrink as 1/|z| past _R_STEP (the local wavenumber is ~|z|/2), to
    the first checkpoint past _R_ASYMP where the Poincare truncation is at
    most _POINCARE_TOL.  Row k holds the _MARCH_ORDER + 2 Taylor
    coefficients about the k-th checkpoint, whose polynomial serves radii up
    to reach[k], one step on.  Nothing here depends on the targets, so a ray
    is marched once per process and the read-only arrays are shared by
    every call.  Past |nu| = _MARCH_NU_MAX it raises SpecFunAccuracyError.
    """
    if abs(nu) > _MARCH_NU_MAX:
        raise SpecFunAccuracyError(
            f"D_nu for nu={nu} needs the march, which loses accuracy past "
            f"|nu| = {_MARCH_NU_MAX:g}")
    direction = np.exp(1j * theta)
    r_cur = _R_SERIES
    z0 = np.array([r_cur * direction])
    d = _maclaurin(nu, z0)[0]
    dp = nu * _maclaurin(nu - 1.0, z0)[0] - 0.5 * z0[0] * d
    rows = []
    while True:
        z0 = r_cur * direction
        a = np.empty(_MARCH_ORDER + 2, dtype=complex)
        a[0] = d
        a[1] = dp
        q0 = 0.25 * z0 * z0 - nu - 0.5
        for n in range(_MARCH_ORDER):
            s = q0 * a[n]
            if n >= 1:
                s = s + 0.5 * z0 * a[n - 1]
            if n >= 2:
                s = s + 0.25 * a[n - 2]
            a[n + 2] = s / ((n + 2.0) * (n + 1.0))
        step = _MARCH_STEP * min(1.0, _R_STEP / r_cur)
        rows.append((r_cur, r_cur + step + 1e-12, a))
        if r_cur >= _R_ASYMP and _poincare_ray(nu, theta, np.array([r_cur]), z=np.array([z0]),
                                               ratio=True)[1][0] <= _POINCARE_TOL:
            break
        h = step * direction
        val = der = 0.0 + 0.0j
        for n in range(_MARCH_ORDER + 1, 0, -1):
            val = val * h + a[n]
            der = der * h + n * a[n]
        d, dp = val * h + a[0], der
        r_cur += step
    table = tuple(np.array(col) for col in zip(*rows))
    for arr in table:
        arr.flags.writeable = False
    return table


def _march_end(nu: complex, theta: float) -> float:
    """The radius past which the Poincare series holds on the ray arg z =
    theta: the last checkpoint of its march."""
    return float(_march_checkpoints(nu, theta)[0][-1])


def _march_ray(nu: complex, theta: float, radii: np.ndarray, derivative: bool = False):
    """D_nu at radii along the ray arg z = theta: each target is the Taylor
    polynomial of the first checkpoint that reaches it; with ``derivative``,
    (D_nu, D'_nu), D' that polynomial's derivative from the same pass.  A
    target past the march's end raises SpecFunAccuracyError."""
    r_k, reach, coef = _march_checkpoints(nu, theta)
    k = np.searchsorted(reach, radii)
    if np.any(k == len(r_k)):
        raise SpecFunAccuracyError(f"D_nu for nu={nu} at |z|~{radii.max():.3g} "
                                   f"lies past the march's end at {r_k[-1]:.3g}")
    a = coef[k]
    h_t = (radii - r_k[k]) * np.exp(1j * theta)
    val = np.zeros(len(radii), dtype=complex)
    der = np.zeros_like(val) if derivative else None
    for n in range(_MARCH_ORDER + 1, -1, -1):
        if derivative:
            der = der * h_t + val
        val = val * h_t + a[:, n]
    return (val, der) if derivative else val


def _mpmath_pcfd(nu: complex, z: np.ndarray, derivative: bool = False):
    """D_nu by ``mpmath.pcfd`` at 53-bit working precision, one point at a
    time; with ``derivative``, (D_nu, D'_nu), D' by the ladder relation
    D' = nu D_{nu-1} - (z/2) D_nu on a second pcfd value.  mpmath raises its
    internal precision where its sums cancel; the first value that leaves
    double range raises SpecFunAccuracyError."""
    out = np.empty((1 + derivative, len(z)), dtype=complex)
    with mpmath.workprec(53):
        for i, zi in enumerate(z):
            d = mpmath.pcfd(nu, complex(zi))
            out[0, i] = complex(d)
            if derivative:
                out[1, i] = complex(nu * mpmath.pcfd(nu - 1.0, complex(zi))
                                    - complex(zi) / 2 * d)
            if not np.all(np.isfinite(out[:, i])):
                raise SpecFunAccuracyError(
                    f"D_nu for nu={nu} at |z|~{abs(zi):.3g} overflows double precision")
    return tuple(out) if derivative else out[0]


def _march_is_stable(nu: complex, theta: float) -> bool:
    """Whether the outward march holds on the ray arg z = theta of the right
    half-plane: where D_nu is dominant and e^{-z^2/4} grows (Re z^2 < 0);
    elsewhere it would amplify its seed's error by the dominant/recessive
    ratio."""
    return theta * nu.imag <= 1e-12 and np.cos(2.0 * theta) <= 0.25


def _scatter(res: tuple, idx, vals) -> None:
    """Store one regime's (D_nu,) or (D_nu, D'_nu) at ``idx`` of the rows
    ``res``; a regime returns D_nu alone when no D' was asked for."""
    for row, v in zip(res, vals if len(res) > 1 else (vals,)):
        row[idx] = v


def _pcf_ray(nu: complex, theta: float, rho: np.ndarray, derivative: bool, z=None) -> tuple:
    """(D_nu,), or with ``derivative`` (D_nu, D'_nu), at the points rho
    e^{i theta} of one ray, rho >= 0 (|theta| <= pi/2 past _R_SERIES), given
    also as the caller's complex points ``z`` if it has them.  The one
    router: the Maclaurin series to _R_SERIES; where the march is stable and
    |nu| <= _MARCH_NU_MAX, the march below the ray's march end (its last
    checkpoint) and the Poincare series at and past it; elsewhere the
    Poincare series past _R_ASYMP where a point truncates within
    _POINCARE_TOL, and the other points by the march where it is stable (it
    raises past _MARCH_NU_MAX) and by ``mpmath.pcfd`` elsewhere."""
    res = tuple(np.empty(len(rho), dtype=complex) for _ in range(1 + derivative))
    direction = np.exp(1j * theta)
    stable = _march_is_stable(nu, theta)
    by_radius = stable and abs(nu) <= _MARCH_NU_MAX
    series = rho <= _R_SERIES
    if np.any(series):
        _scatter(res, series, _maclaurin(
            nu, rho[series] * direction if z is None else z[series], derivative))
    far = rho >= (_march_end(nu, theta) if by_radius else _R_ASYMP)
    if np.any(far):
        vals, trunc = _poincare_ray(nu, theta, rho[far], derivative,
                                    None if z is None else z[far], ratio=not by_radius)
        _scatter(res, far, vals)
        if not by_radius:  # the other points' values are replaced below
            far[far] = trunc <= _POINCARE_TOL
    rest = ~(series | far)  # NaN radii too: the march and mpmath refuse them
    if np.any(rest):
        if stable:
            _scatter(res, rest, _march_ray(nu, theta, rho[rest], derivative))
        else:
            _scatter(res, rest, _mpmath_pcfd(
                nu, rho[rest] * direction if z is None else z[rest], derivative))
    return res


def _fold_factors(nu: complex, sgn):
    """The factors e^{i pi nu sgn} and sqrt(2 pi)/Gamma(-nu) e^{i pi (nu+1) sgn/2}
    of the connection formula (DLMF §12.2) for points with sign Im z =
    ``sgn`` (+-1, scalar or array).  The one guard of every fold, run before
    any D_nu is evaluated: SpecFunAccuracyError where the fold would cancel
    beyond double precision (sgn Im nu < 0 past |Im nu| = 6.8) or a factor
    leaves double range (past |Im nu| ~ 452)."""
    sgn = np.asarray(sgn, dtype=float)
    if abs(nu.imag) > 6.8 and np.any(sgn * nu.imag < 0.0):
        raise SpecFunAccuracyError(
            f"left-half-plane folding for nu={nu} would lose "
            f"~{np.pi * abs(nu.imag) / np.log(10.0):.0f} digits to "
            "connection-formula cancellation"
        )
    # 1/Gamma(-nu) and the exponential leave double range even where their
    # product does not; 0 * inf would be NaN
    with np.errstate(over="ignore", invalid="ignore"):
        rot = np.exp(1j * np.pi * nu * sgn)
        pre = (SQRT_2PI * _rgamma(-nu)) * np.exp(1j * np.pi * (nu + 1.0) / 2.0 * sgn)
    if not (np.all(np.isfinite(rot)) and np.all(np.isfinite(pre))):
        raise SpecFunAccuracyError(
            f"left-half-plane folding for nu={nu} overflows double precision"
        )
    return rot, pre


def _pcf(nu: complex, z: np.ndarray, derivative: bool) -> tuple:
    """(D_nu,), or with ``derivative`` (D_nu, D'_nu), on the 1-d array z;
    |arg z| > pi/2 folded by the connection formula and its d/dz."""
    out = tuple(np.empty_like(z) for _ in range(1 + derivative))
    angles, r = np.angle(z), np.abs(z)
    # the Maclaurin series converges for every arg, so only fold outside it
    left = (np.abs(angles) > 0.5 * np.pi + 1e-14) & (r > _R_SERIES)
    if np.any(left):
        zl = z[left]
        sgn = np.where(np.imag(zl) >= 0.0, 1.0, -1.0)
        rot, pre = _fold_factors(nu, sgn)
        mirror, other = _pcf(nu, -zl, derivative), _pcf(-nu - 1.0, -1j * sgn * zl, derivative)
        out[0][left] = rot * mirror[0] + pre * other[0]
        if derivative:
            out[1][left] = -rot * mirror[1] - 1j * sgn * pre * other[1]
    right = np.flatnonzero(~left)
    # one group per ray: the points in order of angle, split where it moves
    order = right[np.argsort(angles[right], kind="stable")]
    breaks = np.flatnonzero(np.abs(np.diff(angles[order])) > 1e-12) + 1
    for g in np.split(order, breaks) if order.size else ():
        for row, vals in zip(out, _pcf_ray(nu, angles[g[0]], r[g], derivative, z[g])):
            row[g] = vals
    return out


def pcf_d(nu, z, derivative: bool = False, *, theta=None):
    """Whittaker parabolic cylinder function D_nu(z), complex nu and z; with
    ``derivative``, the pair (D_nu(z), D'_nu(z)) from one pass, D' from the
    differentiated expansion of each point's regime and D_nu with the bits
    it has without.

    Vectorized over z.  For |arg z| > pi/2 the value is folded into the right
    half-plane with
    ``D_nu(z) = e^{+-i pi nu} D_nu(-z)
                + sqrt(2 pi)/Gamma(-nu) e^{+-i pi (nu+1)/2} D_{-nu-1}(-+ i z)``
    (upper sign for Im z >= 0).

    With ``theta``, ``z`` holds the real radii rho >= 0 of the points
    rho e^{i theta} of one ray, whose Poincare prefactor is formed from rho
    and theta (``_pcf_ray``): a value depends only on (nu, theta, rho).
    """
    nu = complex(nu)
    if theta is None:
        z = np.asarray(z, dtype=complex)
        out = _pcf(nu, np.atleast_1d(z).ravel(), derivative)
    else:
        if np.iscomplexobj(z):
            raise SpecFunDomainError("with theta, z holds the real radii of the ray's points")
        z = np.asarray(z, dtype=float)
        rho, theta = np.atleast_1d(z).ravel(), float(theta)
        if np.any(rho < 0.0):
            raise SpecFunDomainError(f"ray radii must be non-negative, got {rho.min()!r}")
        out = (_pcf_ray(nu, theta, rho, derivative) if abs(theta) <= 0.5 * np.pi
               else _pcf(nu, rho * np.exp(1j * theta), derivative))
    vals = [complex(row[0]) if z.ndim == 0 else row.reshape(z.shape) for row in out]
    return tuple(vals) if derivative else vals[0]


def pcf_d_dz(nu, z):
    """d/dz of D_nu(z) via the ladder relation D' = nu D_{nu-1} - (z/2) D_nu:
    two D_nu passes, the reference for ``pcf_d(..., derivative=True)``."""
    nu = complex(nu)
    z = np.asarray(z, dtype=complex)
    return nu * pcf_d(nu - 1.0, z) - 0.5 * z * pcf_d(nu, z)
