import numpy as np
import pytest

from relwave.quadrature import (QuadratureError, momentum_grid, superpose,
                                trapezoid_weights)

SQRT_PI = np.sqrt(np.pi)


def gauss_sum(x, node_count=257, half_width=6.5, shift=0.0):
    """sum_p w exp(-(p - shift)^2) exp(i p x), and the same sum of twice the
    amplitude, on a momentum grid about 0."""
    p, w = momentum_grid(0.0, half_width, node_count)
    amp = w * np.exp(-(p - shift) ** 2)
    return superpose(p, amp, 2.0 * amp, np.atleast_1d(x), 1.0)


def test_gaussian_integral():
    # Fourier transform of exp(-p^2): sqrt(pi) exp(-x^2/4)
    xs = np.linspace(-6.0, 6.0, 49)
    psi, dpsi = gauss_sum(xs)
    assert np.max(np.abs(psi - SQRT_PI * np.exp(-xs**2 / 4.0))) < 1e-12
    assert np.array_equal(dpsi, 2.0 * psi)


def test_bessel_k1_integrand():
    # at x = 0 the sum is the trapezoid rule: int_0^5.3 e^{-cosh k} cosh k dk
    # = K1(1) up to e^{-cosh(5.3)} cosh(5.3) < 1e-40
    k, w = momentum_grid(2.65, 2.65, 1025)
    amp = w * np.exp(-np.cosh(k)) * np.cosh(k)
    psi, _ = superpose(k, amp, amp, np.array([0.0]), 1.0)
    assert abs(psi[0] - 0.6019072301972346) < 1e-9


def test_oscillatory_shifted_gaussian():
    psi, _ = gauss_sum(10.0, node_count=513)
    expected = SQRT_PI * np.exp(-25.0)
    assert abs(psi[0] - expected) < 1e-12 * SQRT_PI


def test_linearity():
    rng = np.random.default_rng(11)
    p, w = momentum_grid(0.0, 6.5, 513)
    f = w * np.exp(-p * p) * np.cos(p)
    g = w * np.exp(-0.5 * p * p + 2j * p)
    xs = np.linspace(-5.0, 5.0, 21)
    for _ in range(5):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        combined, _ = superpose(p, a * f + b * g, f, xs, 1.0)
        split = a * superpose(p, f, f, xs, 1.0)[0] + b * superpose(p, g, g, xs, 1.0)[0]
        scale = max(np.max(np.abs(combined)), 1.0)
        assert np.max(np.abs(combined - split)) <= 1e-12 * scale


def test_reversal():
    # amplitude reflected in p gives the packet reflected in x
    p, w = momentum_grid(0.0, 6.5, 513)
    amp = w * np.exp(-(p - 0.7) ** 2) * (1.0 + 0.3j * p)
    xs = np.linspace(-4.0, 4.0, 17)
    direct, _ = superpose(p, amp, amp, xs, 1.0)
    reflected, _ = superpose(p, amp[::-1], amp[::-1], -xs, 1.0)
    assert np.max(np.abs(direct - reflected)) <= 1e-12 * np.max(np.abs(direct))


def test_doubling_converges_geometrically():
    errors = [abs(gauss_sum(0.0, node_count=n, half_width=6.0)[0][0] - SQRT_PI)
              for n in (9, 17, 33, 65)]
    # geometric (in fact super-geometric) decay until round-off
    for a, b in zip(errors[:-1], errors[1:]):
        if a < 1e-14:
            break
        assert b < 0.5 * a


def test_determinism():
    xs = np.linspace(-6.0, 6.0, 1201)
    first = gauss_sum(xs, shift=0.4)
    second = gauss_sum(xs, shift=0.4)
    assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])


def test_value_at_a_point_does_not_depend_on_the_other_points():
    # a single point, a short grid and a grid spanning several 512-row
    # blocks give the same bits at a shared x
    p, w = momentum_grid(0.3, 8.0, 2001)
    amp = w * np.exp(-0.5 * (p - 0.3) ** 2 + 2j * p)
    dmp = -1j * np.sqrt(1.0 + p * p) * amp
    xs = np.linspace(-30.0, 30.0, 1201)
    psi, dpsi = superpose(p, amp, dmp, xs, 1.0)
    for i in (0, 7, 511, 512, 700, 1200):
        for sub in (xs[i:i + 1], xs[i:i + 3]):
            one, done = superpose(p, amp, dmp, sub, 1.0)
            assert one[0] == psi[i] and done[0] == dpsi[i]


def test_momentum_grid_symmetry():
    nodes, _ = momentum_grid(0.0, 1.0, 3)
    assert np.allclose(nodes, [-1.0, 0.0, 1.0])
    nodes, _ = momentum_grid(2.5, 4.0, 101)
    assert np.allclose(nodes + nodes[::-1], 2 * 2.5)


def test_momentum_grid_weights_trapezoid():
    nodes, weights = momentum_grid(0.0, 1.0, 5)
    assert np.allclose(weights, [0.25, 0.5, 0.5, 0.5, 0.25])
    assert abs(weights.sum() - 2.0) < 1e-14


def test_momentum_grid_covers_gaussian_mass():
    # spectrum |psi(p)|^2 ~ exp(-sigma0^2 (p-p0)^2), sigma0 = 0.3, p0 = 9.95
    sigma0, p0 = 0.3, 9.95
    nodes, weights = momentum_grid(p0, 30.0 / sigma0, 4001)
    inside = float(np.sum(weights * np.exp(-sigma0**2 * (nodes - p0) ** 2)))
    total = SQRT_PI / sigma0
    assert inside / total > 0.9999


def test_momentum_grid_errors():
    with pytest.raises(QuadratureError):
        momentum_grid(0.0, 1.0, 1)
    with pytest.raises(QuadratureError):
        momentum_grid(0.0, -1.0, 5)


def test_trapezoid_weights_nonuniform():
    xs = np.array([0.0, 1.0, 3.0])
    assert np.allclose(trapezoid_weights(xs), [0.5, 1.5, 1.0])
