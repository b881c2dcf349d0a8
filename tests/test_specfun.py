import numpy as np
import pytest

from relwave.acceptance import k1_series_reference
from relwave.specfun import (PcfOrder, SpecFunAccuracyError, SpecFunDomainError,
                             bessel_k0, bessel_k1, pcf_d, pcf_d_dz)

RAY_P = (1.0 + 1.0j) / np.sqrt(0.1)
RAY_M = (1.0j - 1.0) / np.sqrt(0.1)
NU_P = -0.5 - 5.0j
NU_M = -0.5 + 5.0j


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
        bessel_k0(0.0 + 1.0j)


def test_k0_k1_wronskian_like_relation():
    # d/dz K1 = -(K0 + K1/z): check with central differences
    z = 1.7 + 0.4j
    h = 1e-5
    dk1 = (bessel_k1(z + h) - bessel_k1(z - h)) / (2 * h)
    rhs = -(bessel_k0(z) + bessel_k1(z) / z)
    assert abs(dk1 - rhs) < 1e-8 * abs(rhs)


def test_k1_vectorized_matches_scalar():
    zs = np.array([0.3 + 0.1j, 2.0 - 1.0j, 10.0 + 9.0j])
    vec = bessel_k1(zs)
    for i, z in enumerate(zs):
        assert vec[i] == bessel_k1(complex(z))


def test_k0_k1_against_mpmath():
    # 100 points over |z| in [1e-3, 50], |arg z| < 0.499 pi
    import mpmath

    rng = np.random.default_rng(17)
    zs = 10 ** rng.uniform(-3.0, np.log10(50.0), 100) \
        * np.exp(1j * rng.uniform(-0.499 * np.pi, 0.499 * np.pi, 100))
    with mpmath.workdps(30):
        for order, fn in ((0, bessel_k0), (1, bessel_k1)):
            got = fn(zs)
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


def test_pcf_order_factory():
    plus, minus = PcfOrder.for_uniform_field(1.0, 0.1)
    assert plus.nu == complex(-0.5, -5.0)
    assert minus.nu == complex(-0.5, 5.0)
    assert plus.nu.real == -0.5
    with pytest.raises(SpecFunDomainError):
        PcfOrder.for_uniform_field(1.0, 0.0)


def test_subdominant_conditioning_raises_not_lies():
    # far beyond double-precision conditioning the evaluation must refuse
    with pytest.raises(SpecFunAccuracyError):
        pcf_d(-0.5 + 20.0j, 5.0 * np.exp(1j * 1.0))
