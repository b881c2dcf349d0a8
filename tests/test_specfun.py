import time
import warnings

import mpmath
import numpy as np
import pytest

from relwave import specfun
from relwave.acceptance import k1_series_reference
from relwave.field_packets import (FieldPacketConfig, _order_and_ray, field_mode_basis,
                                   mode_coeffs, mode_pair)
from relwave.kinematics import FieldMotion
from relwave.specfun import (SpecFunAccuracyError, SpecFunDomainError, bessel_k0_k1,
                             bessel_k1, pcf_d, pcf_d_dz)

RAY_P = (1.0 + 1.0j) / np.sqrt(0.1)
RAY_M = (1.0j - 1.0) / np.sqrt(0.1)
NU_P = -0.5 - 5.0j
NU_M = -0.5 + 5.0j


def _field_cfg(force, sigma0=1.0):
    return FieldPacketConfig(sigma0=sigma0, motion=FieldMotion(force=force))


# ---------------------------------------------------------------------------
# K1
# ---------------------------------------------------------------------------

def test_k1_at_one():
    assert abs(bessel_k1(1.0) - 0.6019072301972346) < 1e-10


def test_k1_small_argument_limit():
    z = 1e-3
    assert abs(z * bessel_k1(z).real - 1.0) < 0.01


def test_k1_real_argument_is_real():
    for z in (0.5, 2.0, 17.0):
        val = bessel_k1(z)
        assert abs(val.imag) < 1e-14 * abs(val)


def test_k1_against_series_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = 10 ** rng.uniform(-2, np.log10(30.0))
        th = rng.uniform(-0.499 * np.pi, 0.499 * np.pi)
        z = r * np.exp(1j * th)
        ref = k1_series_reference(z)
        got = complex(bessel_k1(z))
        assert abs(got - ref) <= 1e-9 * abs(ref), f"z={z}"


def test_k1_domain_error():
    with pytest.raises(SpecFunDomainError):
        bessel_k1(-1.0 + 0.5j)
    with pytest.raises(SpecFunDomainError):
        bessel_k0_k1(0.0 + 1.0j)


def test_k0_k1_wronskian_like_relation():
    # d/dz K1 = -(K0 + K1/z): check with central differences
    z = 1.7 + 0.4j
    h = 1e-5
    dk1 = (bessel_k1(z + h) - bessel_k1(z - h)) / (2 * h)
    rhs = -(bessel_k0_k1(z)[0] + bessel_k1(z) / z)
    assert abs(dk1 - rhs) < 1e-8 * abs(rhs)


def test_k1_vectorized_matches_scalar():
    # a batch that mixes the series (|z| < 2) and the three Gauss-Hermite
    # bands (2-3, 3-5, >= 5): each value is that of its point alone
    zs = np.array([0.3 + 0.1j, 2.0 - 1.0j, 10.0 + 9.0j, 1.9j + 0.01, 2.0, 2.9 - 0.5j,
                   3.0 + 1e-3j, 4.99j + 0.2, 5.0, 1e4 - 3e3j])
    for order in (0, 1):
        for scaled in (False, True):
            vec = bessel_k0_k1(zs, scaled)[order]
            for i, z in enumerate(zs):
                assert vec[i] == bessel_k0_k1(complex(z), scaled)[order]
                assert vec[i] == bessel_k0_k1(zs[i:i + 1], scaled)[order][0]
            assert np.array_equal(bessel_k0_k1(zs[::-1], scaled)[order], vec[::-1])


def _k_points(rng, count):
    """``count`` points over |z| in [1e-3, 1e4], |arg z| <= 0.499 pi, and
    the edges of the K regimes (|z| = 2, 3, 5, last float below 2) at
    arguments across the half-plane."""
    edges = np.array([2.0, np.nextafter(2.0, 0.0), 3.0, 5.0, 1e-3, 1e4])
    radii = np.concatenate([10 ** rng.uniform(-3.0, 4.0, count), np.repeat(edges, 7)])
    args = np.concatenate([rng.uniform(-0.499 * np.pi, 0.499 * np.pi, count),
                           np.tile(np.linspace(-0.499 * np.pi, 0.499 * np.pi, 7), len(edges))])
    return radii * np.exp(1j * args)


def _rel_err(got, ref):
    return np.abs(got - ref) / np.abs(ref)


def test_k0_k1_match_scipy_kve():
    # scipy.special.kve (AMOS), kept as a test-side reference; unscaled
    # values are compared where exp(-z) stays in normal double range
    kve = pytest.importorskip("scipy.special").kve
    z = _k_points(np.random.default_rng(29), 4000)
    normal = z.real < 650.0
    for order in (0, 1):
        ref = kve(order, z)
        assert np.max(_rel_err(bessel_k0_k1(z, True)[order], ref)) <= 1e-14, order
        got = bessel_k0_k1(z[normal])[order]
        assert np.max(_rel_err(got, ref[normal] * np.exp(-z[normal]))) <= 1e-14, order


def test_k0_k1_match_mpmath_scaled_and_unscaled():
    z = _k_points(np.random.default_rng(31), 24)
    refs = {}
    with mpmath.workdps(30):
        w = [mpmath.mpc(v.real, v.imag) for v in z]
        for order in (0, 1):
            k = [mpmath.besselk(order, wi) for wi in w]
            refs[order, False] = np.array([complex(ki) for ki in k])
            refs[order, True] = np.array([complex(ki * mpmath.exp(wi)) for ki, wi in zip(k, w)])
    for (order, scaled), ref in refs.items():
        got = specfun.bessel_k0_k1(z, scaled=scaled)[order]
        normal = np.abs(ref) > 1e-290
        assert np.max(_rel_err(got[normal], ref[normal])) <= 1e-14, (order, scaled)


def test_k0_k1_against_mpmath():
    # 100 points over |z| in [1e-3, 50], |arg z| < 0.499 pi
    rng = np.random.default_rng(17)
    zs = 10 ** rng.uniform(-3.0, np.log10(50.0), 100) \
        * np.exp(1j * rng.uniform(-0.499 * np.pi, 0.499 * np.pi, 100))
    with mpmath.workdps(30):
        for order in (0, 1):
            got = bessel_k0_k1(zs)[order]
            for z, val in zip(zs, got):
                ref = complex(mpmath.besselk(order, mpmath.mpc(z.real, z.imag)))
                assert abs(val - ref) <= 1e-13 * abs(ref), f"K{order}({z})"


def test_k1_scaled_carries_the_exponent():
    # exp(z) K1(z) stays finite where K1 underflows
    assert bessel_k1(800.0) == 0.0
    scaled = bessel_k1(800.0, scaled=True)
    assert abs(scaled * np.sqrt(2.0 * 800.0 / np.pi) - 1.0) < 1e-3
    z = np.array([0.7 + 0.2j, 30.0 - 4.0j])
    assert np.allclose(bessel_k1(z, scaled=True) * np.exp(-z), bessel_k1(z), rtol=1e-15)


# ---------------------------------------------------------------------------
# parabolic cylinder function
# ---------------------------------------------------------------------------

def test_d0_identity():
    for z in (1.0 + 1.0j, 0.3 - 2.0j, 2.0):
        z = complex(z)
        assert abs(pcf_d(0.0, z) - np.exp(-z * z / 4)) < 1e-12


def test_d1_identity():
    z = 2.0 + 0.0j
    assert abs(pcf_d(1.0, z) - z * np.exp(-z * z / 4)) < 1e-12
    z = 1.0 + 1.0j
    assert abs(pcf_d(1.0, z) - z * np.exp(-z * z / 4)) < 1e-12


def test_derivative_identities():
    z = 1.0
    assert abs(pcf_d_dz(0.0, z) - (-0.5 * np.exp(-0.25))) < 1e-12
    assert abs(pcf_d_dz(1.0, z) - ((1.0 - 0.5) * np.exp(-0.25))) < 1e-12


def test_recurrence_residual():
    nu, z = -0.5 + 5.0j, (1.0 + 1.0j) * 3.0
    up = pcf_d(nu + 1, z)
    mid = z * pcf_d(nu, z)
    down = nu * pcf_d(nu - 1, z)
    scale = max(abs(up), abs(mid), abs(down))
    assert abs(up - mid + down) < 1e-9 * scale


def test_derivative_cross_relation():
    nu, z = -0.5 + 5.0j, (1.0 + 1.0j) * 3.0
    lhs = pcf_d_dz(nu, z)
    rhs = 0.5 * z * pcf_d(nu, z) - pcf_d(nu + 1, z)
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs))


def test_conjugation_symmetry():
    rng = np.random.default_rng(9)
    for _ in range(20):
        nu = complex(-0.5, rng.uniform(-6, 6))
        z = complex(rng.uniform(0.1, 8.0), rng.uniform(-8.0, 8.0))
        a = pcf_d(nu, z)
        b = pcf_d(np.conj(nu), np.conj(z))
        assert abs(np.conj(b) - a) <= 1e-12 * abs(a)


def test_ode_residual_on_mode_rays():
    s = np.linspace(-20.0, 20.0, 81)
    s = s[np.abs(s) > 0.05]
    for nu, ray in ((NU_P, RAY_P), (NU_M, RAY_M)):
        z = ray * s
        d = pcf_d(nu, z)
        dp = pcf_d_dz(nu, z)
        dpm1 = pcf_d_dz(nu - 1.0, z)
        d2 = nu * dpm1 - 0.5 * d - 0.5 * z * dp
        resid = np.abs(d2 + (nu + 0.5 - 0.25 * z * z) * d)
        scale = np.abs(d) * np.abs(nu + 0.5 - 0.25 * z * z) + np.abs(d2)
        assert float(np.max(resid / scale)) < 1e-7


def test_derivative_vs_finite_differences():
    s = np.array([-8.0, -2.0, 0.7, 3.0, 12.0])
    h = 1e-5
    for nu, ray in ((NU_P, RAY_P), (NU_M, RAY_M)):
        z = ray * s
        exact = pcf_d_dz(nu, z)
        fd = (pcf_d(nu, z + h) - pcf_d(nu, z - h)) / (2 * h)
        assert np.all(np.abs(exact - fd) < 1e-6 * np.abs(exact))


def test_scalar_and_array_api():
    val = pcf_d(NU_P, 1.0 + 1.0j)
    assert isinstance(val, complex)
    arr = pcf_d(NU_P, np.array([1.0 + 1.0j, 2.0 - 0.5j]))
    assert arr.shape == (2,)
    assert arr[0] == val


def test_pcf_order_factory_takes_the_order_of_abs_force():
    # the order of the uniform-field modes is -1/2 - i/(2|F|), real part
    # exact, on the ray (1+i)/sqrt|F|: a negative force conjugates the modes
    # of |F| and shares their order
    for force in (0.1, -0.3, 2.0):
        nu, ray = _order_and_ray(_field_cfg(force))
        assert nu == complex(-0.5, -1.0 / (2.0 * abs(force))) and nu.real == -0.5
        assert ray == (1.0 + 1.0j) / np.sqrt(abs(force))
    assert _order_and_ray(_field_cfg(-0.3)) == _order_and_ray(_field_cfg(0.3))
    assert _order_and_ray(_field_cfg(0.1)) == (NU_P, RAY_P)


def test_subdominant_conditioning_raises_not_lies():
    # points off the march past |Im nu| = 8 once raised, because the band
    # integral that served them was 2.4e-10 off on the real axis at
    # nu = -1/2 - 10i and 2.2e-4 at -1/2 - 20i; mpmath serves them to 1e-13
    points = [(-0.5 + 20.0j, 5.0 * np.exp(1j * 1.0))]
    points += [(nu, r) for nu in (-0.5 - 10.0j, -0.5 - 20.0j) for r in (1.6, 4.0, 7.9)]
    for nu, z in points:
        got = pcf_d(nu, z)
        with mpmath.workdps(40):
            ref = complex(mpmath.pcfd(nu, z))
        assert abs(got - ref) <= 1e-13 * abs(ref), (nu, z)


def _off_the_march_points():
    # |Im nu| <= 8, 1.5 < |z| <= 8.7 and |arg z| <= pi/2, each ray moved off
    # the march's (theta Im nu <= 0, cos 2 theta <= 1/4) by a reflection; at
    # nu = -1/2 + 7.9i, z = 6i the band integral was 2.6e-8 off, with no error
    rng = np.random.default_rng(5)
    points = [(-0.5 + 7.9j, 6.0j), (-0.5 - 7.9j, -6.0j)]
    for re in (-2.5, -0.5, 0.5, 1.5):
        for k in range(24):
            im = rng.uniform(-8.0, 8.0)
            r = rng.uniform(1.5, 8.7)
            theta = (np.sign(im) * 0.5 * np.pi if k % 6 == 0
                     else rng.uniform(-0.5 * np.pi, 0.5 * np.pi))
            if theta * im < 0.0 and np.cos(2.0 * theta) <= 0.25:
                theta = -theta
            points.append((complex(re, im), r * np.exp(1j * theta)))
    return points


def test_pcf_off_the_march_matches_mpmath(monkeypatch):
    # every value within 1e-13 of the 40-digit one
    points = _off_the_march_points()
    for nu, z in points:
        got = pcf_d(nu, z)
        with mpmath.workdps(40):
            ref = complex(mpmath.pcfd(nu, z))
        assert abs(got - ref) <= 1e-13 * abs(ref), (nu, z)
    # and all but the four points past |z| = 8 that the Poincare series
    # holds reach mpmath.pcfd (94 of 98)
    served = []
    pcfd = specfun._mpmath_pcfd

    def record(nu, z, derivative=False):
        served.extend(z)
        return pcfd(nu, z, derivative)

    monkeypatch.setattr(specfun, "_mpmath_pcfd", record)
    for nu, z in points:
        pcf_d(nu, z)
    assert len(served) == len(points) - 4


def test_weak_force_fold_raises_not_nan():
    # F = 1e-3 gives nu = -1/2 -+ 500i: 1/Gamma(-nu) and the fold's
    # exponential leave double range, and their product 0 * inf must not
    # reach the basis as NaN behind a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SpecFunAccuracyError, match="overflows"):
            mode_coeffs(np.linspace(-0.05, 0.05, 401),
                        _field_cfg(1e-3, sigma0=3.0))
        # off the march: D_nu itself leaves double range there
        with pytest.raises(SpecFunAccuracyError, match="overflows"):
            pcf_d(-0.5 - 2000.0j, 2.0)


def test_maclaurin_overflow_raises_not_nan():
    # past |Im nu| ~ 900 the Maclaurin series' 1/Gamma factors, and D_nu
    # with them, leave double range: a typed error, not NaN behind a numpy
    # warning; mode_pair reaches it on points near s = 0 alone (F = 5e-4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SpecFunAccuracyError, match="overflows"):
            pcf_d(-0.5 - 1000.0j, np.array([0.5 + 0.5j, 1.0]))
        with pytest.raises(SpecFunAccuracyError, match="overflows"):
            mode_pair(_field_cfg(5e-4), np.array([0.0, 1e-3]))


def test_mpmath_fallback_point_alone_has_its_batch_bits():
    # points of the F = 0.05 mode ray: a value of the mpmath fallback is
    # that of its point alone, whatever the batch
    z = (1.0 + 1.0j) / np.sqrt(0.05) * np.linspace(1.34, 1.45, 40)
    for nu in (-0.5 - 10.0j, -1.5 + 2.0j):
        got = specfun._mpmath_pcfd(nu, z)
        for i in range(len(z)):
            assert specfun._mpmath_pcfd(nu, z[i:i + 1])[0] == got[i], (nu, z[i])


def test_mpmath_fallback_serves_a_high_order_quickly():
    # a high order off the march takes the mpmath fallback, within 1e-13 and
    # in a few ms (the deleted band integral's ladder D_nu = z D_{nu-1} -
    # (nu-1) D_{nu-2} called itself twice per level and took 6.7 s here)
    start = time.perf_counter()
    got = pcf_d(20.5, 4.0)
    elapsed = time.perf_counter() - start
    with mpmath.workdps(30):
        ref = complex(mpmath.pcfd(20.5, 4.0))
    assert abs(got - ref) <= 1e-13 * abs(ref)
    assert elapsed < 0.5


def test_rgamma_is_within_one_ulp():
    # the orders of the series and of the fold at the modes of F = 0.1 ..
    # 1e-3, and random points: each part of 1/Gamma within one ulp of the
    # 200-bit value (scipy.special.rgamma was 2.5e-15 off at the mode orders)
    rng = np.random.default_rng(41)
    zs = [complex(a, b) for a, b in zip(rng.uniform(-4.0, 4.0, 300),
                                        rng.uniform(-300.0, 300.0, 300))]
    for force in (0.1, 1.0, 0.3, 0.02, 1e-3):
        nu = complex(-0.5, -1.0 / (2.0 * force))
        for order in (nu, nu - 1.0, nu.conjugate()):
            zs += [-order, (1.0 - order) / 2.0, -order / 2.0]
    with mpmath.workprec(200):
        for z in zs:
            got, ref = specfun._rgamma(z), mpmath.rgamma(mpmath.mpc(z))
            for part, exact in ((got.real, ref.real), (got.imag, ref.imag)):
                if abs(exact) > np.finfo(float).max:  # past double range at F = 1e-3
                    assert not np.isfinite(part), z
                else:
                    assert abs(mpmath.mpf(part) - exact) <= np.spacing(abs(part)), z


def test_rgamma_is_zero_at_the_poles_and_infinite_past_double_range():
    for n in range(0, 12):
        assert specfun._rgamma(complex(-n, 0.0)) == 0.0
    # |1/Gamma(1/4 + i y)| ~ e^{pi |y|/2} leaves double range near |y| = 450,
    # where the weak-force series and fold raise SpecFunAccuracyError
    assert np.isfinite(specfun._rgamma(0.25 - 450.0j))
    for z in (0.25 + 500.0j, 0.25 - 500.0j, 0.5 + 1000.0j):
        assert not np.isfinite(specfun._rgamma(z))


# ---------------------------------------------------------------------------
# D_nu kernels against the route they replaced
# ---------------------------------------------------------------------------
# The reference route: the series ran every point of a batch to the slowest
# point's term count, and every call marched its rays again from the seed.
# Copied unchanged, apart from the seed and target ordering that the caller
# of _march_ray did (_ref_march below), and with only its outward march: the
# march no longer runs inward.  Its fixed step is the march's up to _R_STEP,
# past which no march of these tests goes.  The march is checked bit for
# bit; both series, now Horner passes over per-order coefficient tables, sum
# in another order, so _ref_kummer_m and _ref_asymptotic are their oracles
# to a tolerance.

def _mode_orders_and_rays(force):
    """(order, ray) of f+ and of f-(s) = D_conj(nu)(-conj(ray) s)."""
    nu, ray = _order_and_ray(_field_cfg(force))
    return (nu, ray), (nu.conjugate(), -ray.conjugate())


def _ref_kummer_m(a, b, x, max_terms=700):
    term = np.ones_like(x)
    total = np.ones_like(x)
    for k in range(max_terms):
        term = term * ((a + k) / (b + k)) * x / (k + 1.0)
        total = total + term
        if np.all(np.abs(term) < 1e-18 * (np.abs(total) + 1e-300)):
            break
    return total


def _ref_rgamma(z):
    with mpmath.workprec(200):
        return complex(mpmath.rgamma(mpmath.mpc(z)))


def _ref_maclaurin(nu, z):
    w = 0.5 * z * z
    even = _ref_kummer_m(-nu / 2.0, 0.5, w) * _ref_rgamma((1.0 - nu) / 2.0)
    odd = _ref_kummer_m((1.0 - nu) / 2.0, 1.5, w) * _ref_rgamma(-nu / 2.0)
    return 2.0 ** (nu / 2.0) * specfun.SQRT_PI * np.exp(-0.5 * w) \
        * (even - np.sqrt(2.0) * z * odd)


def _ref_asymptotic(nu, z, max_terms=60):
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


def _ref_march_ray(nu, theta, radii, r_from, seed_d, seed_dp):
    direction = np.exp(1j * theta)
    radii = np.asarray(radii, dtype=float)
    out = np.empty(len(radii), dtype=complex)
    d, dp = seed_d, seed_dp
    r_cur = r_from
    n_ord = specfun._MARCH_ORDER
    a = np.empty(n_ord + 2, dtype=complex)
    remaining = np.arange(len(radii))
    while remaining.size:
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
        here = remaining[dist <= specfun._MARCH_STEP + 1e-12]
        if here.size:
            h_t = (radii[here] - r_cur) * direction
            val = np.zeros(len(here), dtype=complex)
            for n in range(n_ord + 1, -1, -1):
                val = val * h_t + a[n]
            out[here] = val
            remaining = remaining[dist > specfun._MARCH_STEP + 1e-12]
        h = specfun._MARCH_STEP * direction
        val = 0.0 + 0.0j
        der = 0.0 + 0.0j
        for n in range(n_ord + 1, 0, -1):
            val = val * h + a[n]
            der = der * h + n * a[n]
        val = val * h + a[0]
        d, dp = val, der
        r_cur += specfun._MARCH_STEP
    return out


def _ref_march(nu, theta, radii, derivative=False):
    # outward from the Maclaurin seed at _R_SERIES, targets ascending; D_nu only
    assert not derivative
    r_from, idx = specfun._R_SERIES, np.argsort(radii)
    assert radii.max() <= specfun._R_STEP
    z0 = np.array([r_from * np.exp(1j * theta)])
    d0 = specfun._maclaurin(nu, z0)[0]
    dp0 = nu * specfun._maclaurin(nu - 1.0, z0)[0] - 0.5 * z0[0] * d0
    out = np.empty(len(radii), dtype=complex)
    out[idx] = _ref_march_ray(nu, theta, radii[idx], r_from, d0, dp0)
    return out


@pytest.fixture
def reference_pcf_d(monkeypatch):
    def evaluate(nu, z):
        with monkeypatch.context() as m:
            m.setattr(specfun, "_march_ray", _ref_march)
            return specfun.pcf_d(nu, z)
    return evaluate


def _assert_reference_bits(nu, z, reference_pcf_d):
    got = pcf_d(nu, z)
    assert np.array_equal(got, reference_pcf_d(nu, z)), nu
    for i in (0, len(z) // 3, len(z) - 1):
        assert pcf_d(nu, z[i:i + 1])[0] == got[i]


@pytest.mark.parametrize("force", [0.1, 1.0, -0.3])
def test_pcf_mode_rays_match_the_reference_route(force, reference_pcf_d):
    s = np.linspace(-60.0, 60.0, 4001)
    for nu, ray in _mode_orders_and_rays(force):
        for order in (nu, nu - 1.0):
            _assert_reference_bits(order, ray * s, reference_pcf_d)


def test_pcf_sweep_matches_the_reference_route(reference_pcf_d):
    # every argument, both half-planes, all four regimes
    rng = np.random.default_rng(23)
    z = rng.uniform(0.1, 12.0, 200) * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
    for nu in (NU_P, NU_M, -1.5 + 2.0j, 0.3 - 2.0j):
        _assert_reference_bits(nu, z, reference_pcf_d)


def test_pcf_derivative_keeps_d_and_matches_the_ladder():
    # every argument, both half-planes, all four regimes (mpmath off the
    # march's rays): with derivative, D_nu keeps the bits it has without and
    # D' matches pcf_d_dz's ladder relation to 1e-11 of |D'| (measured: 1.7e-12
    # at nu = -1/2 - 5i, under 4e-14 at the others); a scalar z gives a pair
    # of complex numbers
    rng = np.random.default_rng(29)
    z = rng.uniform(0.1, 12.0, 40) * np.exp(1j * rng.uniform(-np.pi, np.pi, 40))
    for nu in (NU_P, NU_M, -1.5 + 2.0j, 0.3 - 2.0j):
        d, dd = pcf_d(nu, z, derivative=True)
        assert np.array_equal(d, pcf_d(nu, z))
        ladder = pcf_d_dz(nu, z)
        assert np.all(np.abs(dd - ladder) <= 1e-11 * np.abs(ladder)), nu
    d, dd = pcf_d(NU_P, z[0], derivative=True)
    assert (d, dd) == (pcf_d(NU_P, z[0]), pcf_d(NU_P, z[:1], derivative=True)[1][0])


def _poincare_calls(monkeypatch, evaluate):
    """The (nu, theta, rho, z) of every _poincare_ray call that ``evaluate``
    makes, each with the caller's complex points z."""
    calls = []

    def record(nu, theta, rho, derivative=False, z=None, ratio=False):
        calls.append((nu, theta, rho.copy(), z.copy()))
        return poincare(nu, theta, rho, derivative, z, ratio)

    poincare = specfun._poincare_ray
    with monkeypatch.context() as m:
        m.setattr(specfun, "_poincare_ray", record)
        evaluate()
    return calls


def test_poincare_series_matches_the_reference_series(monkeypatch):
    # the Poincare points that pcf_d meets on the mode rays and on the sweep
    # of the reference tests above
    def mode_rays_and_sweep():
        s = np.linspace(-60.0, 60.0, 4001)
        for force in (0.1, 1.0, -0.3):
            for nu, ray in _mode_orders_and_rays(force):
                for order in (nu, nu - 1.0):
                    pcf_d(order, ray * s)
        rng = np.random.default_rng(23)
        z = rng.uniform(0.1, 12.0, 200) * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
        for nu in (NU_P, NU_M, -1.5 + 2.0j, 0.3 - 2.0j):
            pcf_d(nu, z)

    calls = _poincare_calls(monkeypatch, mode_rays_and_sweep)
    assert len(calls) >= 12
    for nu, theta, rho, z in calls:
        got, trunc = specfun._poincare_ray(nu, theta, rho, z=z, ratio=True)
        ref, ref_trunc = _ref_asymptotic(nu, z)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 4e-15, nu
        # the same points are routed to the march and to mpmath
        assert np.array_equal(trunc > 1e-11, ref_trunc > 1e-11), nu


@pytest.mark.parametrize("force", [0.1, 1.0, -0.3])
def test_maclaurin_series_matches_the_reference_series(force):
    # the mode orders on |z| <= _R_SERIES at every argument, the march seeds
    # on the diagonal rays included; the Horner pass sums from the last term
    # down, the reference forward to each batch's slowest 1e-18 stop
    rng = np.random.default_rng(31)
    r = specfun._R_SERIES
    z = np.concatenate([rng.uniform(0.0, r, 300) * np.exp(1j * rng.uniform(-np.pi, np.pi, 300)),
                        r * np.exp(0.25j * np.pi * np.array([1.0, -1.0, 3.0, -3.0])), [0.0]])
    for nu, _ in _mode_orders_and_rays(force):
        for order in (nu, nu - 1.0):
            got = specfun._maclaurin(order, z)
            ref = _ref_maclaurin(order, z)
            assert np.max(np.abs(got - ref)) <= 2e-15 * np.max(np.abs(ref)), order
            for i in range(len(z)):
                assert specfun._maclaurin(order, z[i:i + 1])[0] == got[i], (order, z[i])


def test_poincare_point_alone_has_its_batch_bits():
    # at nu = -20 the term counts run from 1 (|z| = 8) to the cap
    nu = -20.0 + 0.0j
    z = np.geomspace(8.0, 3000.0, 300) * np.exp(0.25j * np.pi)
    c, _, grow, stop = specfun._poincare_table(nu)
    lam = np.log(np.abs(1.0 / (2.0 * z * z)))
    n = np.minimum(np.minimum(np.searchsorted(grow, -lam, "right") + 1,
                              np.searchsorted(stop, lam, "right") + 2), len(c))
    assert n.min() == 1 and n.max() == len(c) == specfun._POINCARE_TERMS + 1
    # on the declared ray (prefactor from rho and theta) and at the complex z
    rho, theta = np.geomspace(8.0, 3000.0, 300), 0.25 * np.pi
    for points in (None, z):
        def poincare(i, derivative=False):
            at = slice(None) if i is None else slice(i, i + 1)
            return specfun._poincare_ray(nu, theta, rho[at], derivative,
                                         None if points is None else points[at], ratio=True)

        got, trunc = poincare(None)
        (d, dd), _ = poincare(None, derivative=True)
        assert np.array_equal(d, got)
        for i in range(len(z)):
            alone, alone_trunc = poincare(i)
            assert alone[0] == got[i] and alone_trunc[0] == trunc[i], z[i]
            # D' too (an in-place complex multiply rounded a lone point otherwise)
            assert poincare(i, derivative=True)[0][1][0] == dd[i], z[i]


@pytest.mark.parametrize("im_nu", [417.0, -417.0, 450.0, -450.0])
def test_poincare_series_stays_finite_at_the_weakest_fields(im_nu):
    # |Im nu| = 417 and 450 are forces 1.2e-3 and 1.1e-3: the coefficients
    # reach ~1e237 and the terms underflow, but nothing leaves double range
    rho, theta = np.geomspace(8.0, 3000.0, 400), -0.25 * np.pi * np.sign(im_nu)
    z = rho * np.exp(1j * theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for nu in (complex(-0.5, im_nu), complex(-1.5, im_nu)):
            table = specfun._poincare_table(nu)
            assert all(np.all(np.isfinite(a)) for a in table)
            assert len(table[0]) == specfun._POINCARE_TERMS + 1
            val, trunc = specfun._poincare_ray(nu, theta, rho, z=z, ratio=True)
            assert np.all(np.isfinite(val)) and np.all(np.isfinite(trunc))
            ref, _ = _ref_asymptotic(nu, z)
            assert np.max(np.abs(val - ref) / np.abs(ref)) < 4e-15


def test_poincare_table_keeps_its_finite_prefix():
    # at |Im nu| = 5000 (force 1e-4) c_s leaves double range after s = 50:
    # the series stops there, with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = specfun._poincare_table(-0.5 - 5000.0j)
    assert 1 < len(table[0]) <= specfun._POINCARE_TERMS
    assert all(np.all(np.isfinite(a)) for a in table)
    assert len(table[2]) == len(table[3]) == len(table[0]) - 1


def test_pcf_batch_of_mixed_rays_matches_mpmath():
    # band points of many rays in one call: each value lands on its own point
    # (they once came back in order of angle), batched or alone
    rng = np.random.default_rng(29)
    z = rng.uniform(0.1, 12.0, 120) * np.exp(1j * rng.uniform(-np.pi, np.pi, 120))
    for nu in (NU_P, -1.5 + 2.0j):
        got = pcf_d(nu, z)
        with mpmath.workdps(25):
            ref = np.array([complex(mpmath.pcfd(nu, zz)) for zz in z])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9, nu
        assert all(pcf_d(nu, z[i:i + 1])[0] == got[i] for i in range(0, 120, 7))


def test_each_ray_is_marched_once():
    cfg = FieldPacketConfig(0.3, FieldMotion.from_gamma(1.0, force=0.23))
    basis = field_mode_basis(cfg, 30.0, 30.0)
    info = specfun._march_checkpoints.cache_info
    basis.modes(0.0, True)
    misses, hits = info().misses, info().hits
    for t in np.linspace(3.0, 30.0, 9):
        basis.modes(t, True)
    assert info().misses == misses
    assert info().hits > hits
    table = specfun._march_checkpoints(_order_and_ray(cfg)[0], np.pi / 4)
    assert not any(a.flags.writeable for a in table)


@pytest.mark.parametrize("force", [0.045, 0.04, 0.03, 0.02, 0.01, 0.005])
def test_weak_force_mode_ray_matches_mpmath_or_raises(force):
    # the f+ mode ray for |z| in [1, 60], both orders the modes take: within
    # 1e-11 at every force down to 0.01 (measured: 6.5e-12 at 0.01; it was
    # 2.3e-10 at 0.04, 1.1e-3 at 0.02 and 1.8e10 at 0.01 when Poincare
    # points past |z| = 8.5 took the band integral), and a typed error below
    nu, ray = _order_and_ray(_field_cfg(force))
    z = np.linspace(1.0, 60.0, 150) * ray / abs(ray)
    for order in (nu, nu - 1.0):
        if force < 0.01:
            with pytest.raises(SpecFunAccuracyError):
                pcf_d(order, z)
            continue
        got = pcf_d(order, z)
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.pcfd(order, zz)) for zz in z])
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-11, order


@pytest.mark.parametrize("force", [0.1, 0.04, 0.02, 0.01])
def test_mode_rays_never_take_the_mpmath_fallback(monkeypatch, force):
    # both modes and both orders, s in [-60, 60], at complex z and
    # through mode_pair's declared ray: the march reaches every point the
    # Poincare series does not, and no point takes mpmath.pcfd
    def no_mpmath_pcfd(nu, z, derivative=False):
        raise AssertionError("mpmath.pcfd called")

    monkeypatch.setattr(specfun, "_mpmath_pcfd", no_mpmath_pcfd)
    s = np.linspace(-60.0, 60.0, 4001)
    for nu, ray in _mode_orders_and_rays(force):
        for order in (nu, nu - 1.0):
            assert np.all(np.isfinite(pcf_d(order, ray * s)))
    mode_pair(_field_cfg(force), s, derivatives=True)


def test_poorly_truncated_poincare_points_are_marched(monkeypatch):
    # the D_{nu-1} of the ladder reference (pcf_d_dz) of the F = 0.1 modes'
    # d/dt at |z| just past _R_ASYMP: the Poincare series truncates poorly
    # there, and the march's last checkpoint reaches them on these dominant
    # rays, not the mpmath fallback
    def no_mpmath_pcfd(nu, z, derivative=False):
        raise AssertionError("mpmath.pcfd called")

    monkeypatch.setattr(specfun, "_mpmath_pcfd", no_mpmath_pcfd)
    r = np.array([8.004, 8.111])
    for nu, theta in ((-1.5 - 5.0j, 0.25 * np.pi), (-1.5 + 5.0j, -0.25 * np.pi)):
        z = r * np.exp(1j * theta)
        assert np.all(specfun._poincare_ray(nu, theta, r, z=z, ratio=True)[1] > 1e-11)
        got = pcf_d(nu, z)
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.pcfd(nu, zz)) for zz in z])
        assert np.max(np.abs(got / ref - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# D_nu on a declared ray: pcf_d(nu, rho, theta=theta) at rho e^{i theta}
# ---------------------------------------------------------------------------

def _mode_ray(force):
    """The order and ray of f+ at ``force``: for F < 0, the conjugates of
    those of |F| (the ray at theta = -pi/4)."""
    nu, ray = _order_and_ray(_field_cfg(abs(force)))
    return (nu.conjugate(), ray.conjugate()) if force < 0 else (nu, ray)


# radii in the Maclaurin disc, on the march and past every march end of the
# forces below (8 to 35.4)
_RAY_RADII = np.concatenate([np.linspace(0.0, 1.5, 6), np.linspace(1.8, 7.9, 8),
                             [8.0, 8.6, 9.7, 17.5, 18.2, 35.3, 35.5],
                             np.geomspace(8.05, 1000.0, 61)])


@pytest.mark.parametrize("force", [0.01, 0.04, 0.1, 0.3, 1.0, -0.3])
def test_ray_route_matches_mpmath(force):
    # D and D' at rho = |r| s on the mode ray against 30-digit mpmath at
    # z = r s formed in mpmath from the double s, pointwise within the D_nu
    # tolerance plus a few roundings of the Gaussian phase |z|^2/4 (the
    # declared ray forms it from rho and theta, a complex z from z).  Measured
    # worst error over this bound, declared ray (complex z = r s): 0.57
    # (0.30) at F = 0.01, 0.50 (0.30) at 0.04, 0.66 (0.44) at 0.1, 0.42
    # (0.49) at +-0.3, 0.64 (0.15) at 1
    nu, ray = _mode_ray(force)
    theta = np.angle(ray)
    s = _RAY_RADII / abs(ray)
    rho = abs(ray) * s
    end = specfun._march_end(nu, theta)
    for regime in (rho <= specfun._R_SERIES, (rho > specfun._R_SERIES) & (rho < end),
                   rho >= end):
        assert np.count_nonzero(regime) >= 3
    d, dd = pcf_d(nu, rho, derivative=True, theta=theta)
    with mpmath.workdps(30):
        r = (1 + 1j * np.sign(force)) / mpmath.sqrt(abs(force))
        ref, dref = [], []
        for si in s:
            z = r * mpmath.mpf(si)
            v = mpmath.pcfd(nu, z)
            ref.append(complex(v))
            dref.append(complex(nu * mpmath.pcfd(nu - 1, z) - z / 2 * v))
    bound = 1e-11 + 2.0 ** -51 * rho * rho / 4.0
    for got, exact in ((d, np.array(ref)), (dd, np.array(dref))):
        assert np.all(np.abs(got - exact) <= bound * np.abs(exact)), force


@pytest.mark.parametrize("force", [0.0105, 0.01, 0.02, 0.04, 0.1, 0.3, 1.0, 3.0, 10.0])
def test_poincare_series_holds_past_each_march_end(force):
    # the ray route takes the Poincare series at and past the march end with
    # no truncation test per point: there, on a dense radius grid, each
    # point's truncation is within _POINCARE_TOL, for both orders of the modes
    nu, ray = _mode_ray(force)
    theta = np.angle(ray)
    for order in (nu, nu - 1.0):
        end = specfun._march_end(order, theta)
        rho = np.concatenate([np.linspace(end, end + 20.0, 40001),
                              np.geomspace(end + 20.0, 1e4, 2000)])
        trunc = specfun._poincare_ray(order, theta, rho, ratio=True)[1]
        assert np.all(trunc <= specfun._POINCARE_TOL), (order, rho[np.argmax(trunc)])


def test_ray_regimes_are_read_from_the_radius(monkeypatch):
    # the Maclaurin series to _R_SERIES, the march below the ray's last
    # checkpoint and the Poincare series at and past it, whatever the
    # truncation of the points just below it
    nu, ray = _mode_ray(0.02)
    theta = np.angle(ray)
    checkpoints = specfun._march_checkpoints(nu, theta)[0]
    end = checkpoints[-1]
    rho = np.array([0.0, 1.5, np.nextafter(1.5, 2.0), 8.0, checkpoints[-2],
                    np.nextafter(end, 0.0), end, end + 1e-9, 100.0])
    seen = {}
    maclaurin, march, poincare = specfun._maclaurin, specfun._march_ray, specfun._poincare_ray

    def on_the_ray(name, f):
        def spy(nu, theta, radii, *args, **kwargs):
            seen[name] = list(radii)
            return f(nu, theta, radii, *args, **kwargs)
        return spy

    monkeypatch.setattr(specfun, "_maclaurin", lambda nu, z, derivative=False:
                        seen.setdefault("_maclaurin", list(np.abs(z)))
                        and maclaurin(nu, z, derivative))
    monkeypatch.setattr(specfun, "_march_ray", on_the_ray("_march_ray", march))
    monkeypatch.setattr(specfun, "_poincare_ray", on_the_ray("_poincare_ray", poincare))
    pcf_d(nu, rho, theta=theta)
    assert seen["_maclaurin"] == pytest.approx(rho[:2], abs=1e-15)
    assert seen["_march_ray"] == list(rho[2:6])
    assert seen["_poincare_ray"] == list(rho[6:])


@pytest.mark.parametrize("force", [0.01, 0.1, -0.3])
def test_ray_point_alone_has_its_batch_bits(force):
    # a value on the ray depends on (nu, theta, rho) alone: a point alone,
    # as a scalar or in a reversed batch has its batch bits, and D keeps them
    # with or without D'
    nu, ray = _mode_ray(force)
    theta = np.angle(ray)
    rho = np.concatenate([np.linspace(0.0, 3.0, 31), np.linspace(3.0, 200.0, 397)])
    d, dd = pcf_d(nu, rho, derivative=True, theta=theta)
    assert np.array_equal(d, pcf_d(nu, rho, theta=theta))
    back, dback = pcf_d(nu, rho[::-1], derivative=True, theta=theta)
    assert np.array_equal(back[::-1], d) and np.array_equal(dback[::-1], dd)
    for i in range(len(rho)):
        alone, dalone = pcf_d(nu, rho[i:i + 1], derivative=True, theta=theta)
        assert alone[0] == d[i] and dalone[0] == dd[i], rho[i]
        assert pcf_d(nu, rho[i], theta=theta) == d[i], rho[i]


def test_ray_off_the_march_matches_mpmath():
    # a ray where the march is unstable, one in the left half-plane (folded)
    # and an order past _MARCH_NU_MAX (Poincare points) against 30-digit
    # mpmath at rho e^{i theta}, to the bound of test_ray_route_matches_mpmath;
    # radii must be real and non-negative
    rho = np.array([0.5, 3.0, 9.0, 20.0])
    for nu, theta, radii in ((NU_M, 0.25 * np.pi, rho), (NU_P, 0.75 * np.pi, rho[2:]),
                             (-0.5 - 60.0j, 0.25 * np.pi, np.array([150.0, 300.0]))):
        got = pcf_d(nu, radii, theta=theta)
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.pcfd(nu, mpmath.mpf(r) * mpmath.expj(theta)))
                            for r in radii])
        bound = 1e-11 + 2.0 ** -51 * radii * radii / 4.0
        assert np.all(np.abs(got - ref) <= bound * np.abs(ref)), (nu, theta)
    with pytest.raises(SpecFunDomainError):
        pcf_d(NU_P, np.array([1.0, -1.0]), theta=0.25 * np.pi)
    with pytest.raises(SpecFunDomainError):
        pcf_d(NU_P, np.array([1.0 + 0.0j]), theta=0.25 * np.pi)
