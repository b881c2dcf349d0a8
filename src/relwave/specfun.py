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

D_nu(z) takes each point, in one pass, to the first regime that holds it:

* |z| <= _R_SERIES  Maclaurin series via Kummer's M (any argument),
* |z| >= _R_ASYMP   Poincare expansion e^{-z^2/4} z^nu sum_s (-nu)_{2s} (-2z^2)^{-s}/s!,
                    where it truncates within 1e-11,
* dominant rays     Taylor march of Weber's equation outward along the ray,
                    on to where the Poincare expansion holds,
* other points      ``mpmath.pcfd`` at 53-bit working precision, one point at
                    a time (a march there would amplify seed error by the
                    dominant/recessive ratio),

with |arg z| > pi/2 folded into the right half-plane first.  The fold's
connection-formula factors and its one guard live in ``_fold_factors``,
which ``field_packets.mode_pair`` calls too, before any D_nu: it raises
SpecFunAccuracyError where the fold would cancel beyond double precision or
a factor leaves double range.  The mode rays of the uniform-field packets
take the first three regimes (within 1e-11 of mpmath for forces down to
0.01); mpmath serves only the points of other rays, at a few ms each.

Both series (DLMF 12.4, 12.9) are Horner passes over per-order tables of
coefficients, so a value does not depend on the other points of the call:
the Maclaurin series takes one term count per order, enough for every
|z| <= _R_SERIES; a Poincare point stops at its first term below 1e-18 or
before its first growing term, a count read from the table.  The march
does not depend on its targets: the Taylor coefficients at its checkpoints
are computed once per ray (order, angle) and cached, and each call only
evaluates its targets' polynomials.  ``pcf_d(..., derivative=True)`` takes
D'_nu from the same pass as D_nu, which keeps its bits: the differentiated
Maclaurin series, the termwise-differentiated Poincare series and the
derivative of the march's Taylor polynomial, each in the loop of its D_nu
(mpmath points take the ladder relation).  ``pcf_d_dz``, the ladder
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


def _asymptotic(nu: complex, z: np.ndarray, derivative: bool = False):
    """One-piece Poincare expansion on a 1-d array; returns (value,
    per-point truncation ratio: last term kept over the sum).  The points,
    sorted by term count, share one Horner pass over ``_poincare_table``.
    With ``derivative`` the value is (D_nu, D'_nu), D' the termwise
    derivative of the series: with w = 1/(2z^2), S = sum_s c_s w^s and
    T = sum_s s c_s w^s, D' = e^{-z^2/4} z^nu [(nu/z - z/2) S - (2/z) T]
    = -(z/2) e^{-z^2/4} z^nu sum_s d_s w^s, d_s = c_s + (8(s-1) - 4 nu) c_{s-1},
    summed in the same pass to each point's term count.  (Summing S and T
    to that count instead keeps half of term n and doubles the truncation
    error near |z| = _R_ASYMP.)"""
    c, log_c, grow, stop = _poincare_table(nu)
    inv = 1.0 / (2.0 * z * z)
    lam = np.log(np.abs(inv))
    n = np.minimum(np.minimum(np.searchsorted(grow, -lam, "right") + 1,
                              np.searchsorted(stop, lam, "right") + 2), len(c))
    order = np.argsort(-n, kind="stable")
    inv_sorted, acc = inv[order], np.zeros_like(z)
    if derivative:
        d = c + np.concatenate([[0.0], (8.0 * np.arange(len(c) - 1) - 4.0 * nu) * c[:-1]])
        dacc = np.zeros_like(z)
    live = np.searchsorted(-n[order], -np.arange(n.max()))  # points with a term s
    for s in range(len(live) - 1, 0, -1):
        acc[:live[s]] = (acc[:live[s]] + c[s]) * inv_sorted[:live[s]]
        if derivative:
            part = dacc[:live[s]]
            part += d[s]
            part *= inv_sorted[:live[s]]
    total = np.empty_like(z)
    total[order] = 1.0 + acc
    trunc = np.exp(log_c[n - 1] + (n - 1) * lam) / np.maximum(np.abs(total), 1e-300)
    if not derivative:
        return np.exp(-0.25 * z * z) * z ** nu * total, trunc
    pre = np.exp(-0.25 * z * z) * z ** nu
    dtotal = np.empty_like(z)
    dtotal[order] = 1.0 + dacc
    return (pre * total, -0.5 * z * pre * dtotal), trunc


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
        if r_cur >= _R_ASYMP and _asymptotic(nu, np.array([z0]))[1][0] <= _POINCARE_TOL:
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


def _pcf_right_half_any_arg(nu: complex, z: np.ndarray, derivative: bool) -> tuple:
    """D_nu on |arg z| <= pi/2, plus small-|z| points of any argument: the
    Maclaurin series, else the Poincare expansion where it truncates within
    _POINCARE_TOL, else the outward march on rays where it is stable, else
    ``mpmath.pcfd``.  Returns (D_nu,), or with ``derivative`` (D_nu, D'_nu),
    D' from the same regime's pass."""
    res = tuple(np.empty_like(z) for _ in range(1 + derivative))

    def put(idx, vals):
        for row, v in zip(res, vals if derivative else (vals,)):
            row[idx] = v

    r = np.abs(z)
    small = r <= _R_SERIES
    rest = ~small
    if np.any(small):
        put(small, _maclaurin(nu, z[small], derivative))
    big = np.flatnonzero(r >= _R_ASYMP)
    if big.size:
        vals, trunc = _asymptotic(nu, z[big], derivative)
        good = trunc <= _POINCARE_TOL
        put(big[good], tuple(v[good] for v in vals) if derivative else vals[good])
        rest[big[good]] = False
    if np.any(rest):
        idx = np.flatnonzero(rest)
        zr = z[idx]
        angles = np.angle(zr)
        # one group per ray: the points in order of angle, split where the
        # angle moves; g indexes zr and idx
        order = np.argsort(angles, kind="stable")
        breaks = np.where(np.abs(np.diff(angles[order])) > 1e-12)[0] + 1
        for g in np.split(order, breaks):
            theta = angles[g[0]]
            # the outward march is stable where D_nu is dominant and
            # e^{-z^2/4} grows (Re z^2 < 0); elsewhere it would amplify its
            # seed's error by the dominant/recessive ratio
            if theta * nu.imag <= 1e-12 and np.cos(2.0 * theta) <= 0.25:
                put(idx[g], _march_ray(nu, theta, np.abs(zr[g]), derivative))
            else:
                put(idx[g], _mpmath_pcfd(nu, zr[g], derivative))
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
    # the Maclaurin series converges for every arg, so only fold outside it
    left = (np.abs(np.angle(z)) > 0.5 * np.pi + 1e-14) & (np.abs(z) > _R_SERIES)
    right = ~left
    if np.any(left):
        zl = z[left]
        sgn = np.where(np.imag(zl) >= 0.0, 1.0, -1.0)
        rot, pre = _fold_factors(nu, sgn)
        mirror, other = _pcf(nu, -zl, derivative), _pcf(-nu - 1.0, -1j * sgn * zl, derivative)
        out[0][left] = rot * mirror[0] + pre * other[0]
        if derivative:
            out[1][left] = -rot * mirror[1] - 1j * sgn * pre * other[1]
    if np.any(right):
        for row, vals in zip(out, _pcf_right_half_any_arg(nu, z[right], derivative)):
            row[right] = vals
    return out


def pcf_d(nu, z, derivative: bool = False):
    """Whittaker parabolic cylinder function D_nu(z), complex nu and z; with
    ``derivative``, the pair (D_nu(z), D'_nu(z)) from one pass, D' from the
    differentiated expansion of each point's regime and D_nu with the bits
    it has without.

    Vectorized over z.  For |arg z| > pi/2 the value is folded into the right
    half-plane with
    ``D_nu(z) = e^{+-i pi nu} D_nu(-z)
                + sqrt(2 pi)/Gamma(-nu) e^{+-i pi (nu+1)/2} D_{-nu-1}(-+ i z)``
    (upper sign for Im z >= 0).
    """
    nu = complex(nu)
    z = np.asarray(z, dtype=complex)
    out = _pcf(nu, np.atleast_1d(z).ravel(), derivative)
    vals = [complex(row[0]) if z.ndim == 0 else row.reshape(z.shape) for row in out]
    return tuple(vals) if derivative else vals[0]


def pcf_d_dz(nu, z):
    """d/dz of D_nu(z) via the ladder relation D' = nu D_{nu-1} - (z/2) D_nu:
    two D_nu passes, the reference for ``pcf_d(..., derivative=True)``."""
    nu = complex(nu)
    z = np.asarray(z, dtype=complex)
    return nu * pcf_d(nu - 1.0, z) - 0.5 * z * pcf_d(nu, z)
