import numpy as np
import pytest

from relwave import quadrature
from relwave.quadrature import (_PAIR_BLOCK, QuadratureError, momentum_grid, superpose,
                                superpose_pairs, trapezoid_weights)

SQRT_PI = np.sqrt(np.pi)


def gauss_sum(x, node_count=257, half_width=6.5, shift=0.0):
    """sum_p w exp(-(p - shift)^2) exp(i p x), and the same sum of twice the
    amplitude, on a momentum grid about 0."""
    p, w = momentum_grid(0.0, half_width, node_count)
    amp = w * np.exp(-(p - shift) ** 2)
    return superpose(p, amp, 2.0 * amp, np.atleast_1d(x))


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
    psi, _ = superpose(k, amp, amp, np.array([0.0]))
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
        combined, _ = superpose(p, a * f + b * g, f, xs)
        split = a * superpose(p, f, f, xs)[0] + b * superpose(p, g, g, xs)[0]
        scale = max(np.max(np.abs(combined)), 1.0)
        assert np.max(np.abs(combined - split)) <= 1e-12 * scale


def test_reversal():
    # amplitude reflected in p gives the packet reflected in x
    p, w = momentum_grid(0.0, 6.5, 513)
    amp = w * np.exp(-(p - 0.7) ** 2) * (1.0 + 0.3j * p)
    xs = np.linspace(-4.0, 4.0, 17)
    direct, _ = superpose(p, amp, amp, xs)
    reflected, _ = superpose(p, amp[::-1], amp[::-1], -xs)
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


def test_dense_value_at_a_point_does_not_depend_on_the_other_points():
    # on the dense route (single points, non-uniform grids) a single point,
    # a short non-uniform grid and a non-uniform grid spanning several
    # blocks give the same bits at a shared x
    p, w = momentum_grid(0.3, 8.0, 2001)
    amp = w * np.exp(-0.5 * (p - 0.3) ** 2 + 2j * p)
    dmp = -1j * np.sqrt(1.0 + p * p) * amp
    xs = np.linspace(-30.0, 30.0, 1201) ** 3 / 900.0
    assert 1201 > 2 * (_PAIR_BLOCK // len(p))
    psi, dpsi = superpose(p, amp, dmp, xs)
    for i in (0, 7, 511, 512, 700, 1200):
        for sub in (xs[i:i + 1], xs[i] + np.array([0.0, 0.5, 3.0])):
            one, done = superpose(p, amp, dmp, sub)
            assert one[0] == psi[i] and done[0] == dpsi[i]
    # a uniform grid takes the chirp-z route: equal to the dense sum within
    # the oracle bound, not bit for bit
    grid = np.linspace(-30.0, 30.0, 1201)
    psi_u, _ = superpose(p, amp, dmp, grid)
    for i in (0, 7, 700, 1200):
        one, _ = superpose(p, amp, dmp, grid[i:i + 1])
        assert abs(psi_u[i] - one[0]) <= 1e-11 * np.sum(np.abs(amp))


def _dense_sum(p, a, xs):
    """The oracle: sum_j a_j exp(i p_j x), one x at a time."""
    return np.array([np.sum(a * np.exp(1j * p * x)) for x in xs])


def _oracle_amplitudes():
    """(name, p, amp, damp) of the closed packets, the gamma0 = 10 Gaussian
    and a uniform-field packet at t = 7: the weighted modes of their
    ModeSums."""
    from relwave.field_packets import FieldPacketConfig, field_mode_basis
    from relwave.free_packets import (ClosedPacketConfig, GaussianPacketConfig,
                                      closed_spectral, gauss_spectral)
    from relwave.kinematics import FieldMotion, FreeMotion

    t = 7.0
    sums = [(f"closed vartheta={vt} v0={v0}",
             closed_spectral(ClosedPacketConfig(vartheta=vt,
                                                motion=FreeMotion(v0=v0, x0=0.5)),
                             20.0, 20.0))
            for vt in (0.1, 2.0, 100.0) for v0 in (0.0, 0.9)]
    sums.append(("gauss gamma0=10",
                 gauss_spectral(GaussianPacketConfig(0.3, FreeMotion.from_gamma(10.0)),
                                20.0, 20.0)))
    sums.append(("field sigma0=0.3 gamma0=10",
                 field_mode_basis(FieldPacketConfig(0.3, FieldMotion.from_gamma(10.0, 0.1)),
                                  30.0, 10.0)))
    out = []
    for name, ms in sums:
        a, da = ms.modes(t, True)
        out.append((name, ms.p, ms.weights * a, ms.weights * da))
    return out


def test_chirp_z_matches_the_dense_sum():
    # x / 0.37 gives a chirp angle dp dx that is not the packets' own
    for name, p, amp, damp in _oracle_amplitudes():
        for n in (2, 3, 81, 2001):
            for offset in (0.0, 1000.0):
                for scale in (1.0, 0.37):
                    xs = (offset + np.linspace(-15.0, 25.0, n)) / scale
                    psi, dpsi = superpose(p, amp, damp, xs)
                    at = np.unique(np.linspace(0, n - 1, min(n, 41)).astype(int))
                    for got, a in ((psi, amp), (dpsi, damp)):
                        err = np.max(np.abs(got[at] - _dense_sum(p, a, xs[at])))
                        assert err <= 1e-11 * np.sum(np.abs(a)), \
                            f"{name}, n={n}, offset={offset}, x/{scale}: {err:.2e}"


def test_dense_blocks_stay_within_the_byte_budget(monkeypatch):
    # off the chirp-z route superpose is superpose_pairs with one constant
    # row each for psi and d/dt psi: a block holds at most _PAIR_BLOCK points
    # (x values x nodes, 16 bytes each per complex temporary), or one x when
    # Np exceeds it, and each block serves both rows in turn
    shapes = []
    sets = []
    pairs = quadrature.superpose_pairs

    def recording(p, amp_rows, ts, xs):
        def rows(k, amps):
            def block(t):
                a = amps(t)
                sets.append(k)
                shapes.append(a.shape)
                return a
            return block
        return pairs(p, [rows(k, amps) for k, amps in enumerate(amp_rows)], ts, xs)

    monkeypatch.setattr(quadrature, "superpose_pairs", recording)
    xs = np.linspace(-3.0, 3.0, 50) ** 3
    for n_p in (2, 2001, 100_000):
        p, w = momentum_grid(0.0, 5.0, n_p)
        shapes.clear()
        sets.clear()
        superpose(p, w, 2.0 * w, xs)
        assert sum(rows for rows, _ in shapes) == 2 * len(xs)
        assert sets == [0, 1] * (len(sets) // 2)
        assert {n for _, n in shapes} == {n_p}
        assert max(rows for rows, _ in shapes) == max(1, min(len(xs), _PAIR_BLOCK // n_p))
        assert max(rows * n_p for rows, _ in shapes) <= max(_PAIR_BLOCK, n_p)


@pytest.mark.parametrize("n_p", [3, 2001, 9001])
def test_dense_route_has_the_bits_of_superpose_pairs(n_p):
    # the non-uniform grid takes the dense route, one constant row of
    # amplitudes per x; the same rows, stored in full, give the same bits
    p, w = momentum_grid(0.3, 8.0, n_p)
    amp = w * np.exp(-0.5 * (p - 0.3) ** 2 + 2j * p)
    dmp = -1j * np.sqrt(1.0 + p * p) * amp
    xs = np.linspace(-30.0, 30.0, 401) ** 3 / 900.0
    for got, a in zip(superpose(p, amp, dmp, xs), (amp, dmp)):
        ref = superpose_pairs(p, [lambda t: np.tile(a, (len(t), 1))], np.zeros(len(xs)), xs)
        assert np.array_equal(got, ref[0])


def _ref_superpose_pairs(p, amp_rows, ts, xs):
    # the dense pair sum of one row function, as superpose called it once
    # for psi and once for d/dt psi, each call with its own exponentials
    out = np.empty(len(ts), dtype=complex)
    rows = max(1, _PAIR_BLOCK // len(p))
    for i0 in range(0, len(ts), rows):
        block = np.exp(1j * np.outer(xs[i0:i0 + rows], p))
        out[i0:i0 + rows] = np.einsum("ij,ij->i", block, amp_rows(ts[i0:i0 + rows]))
    return out


@pytest.mark.parametrize("n_p", [3, 2245, 9001])
def test_dense_route_matches_two_separate_pair_sums(n_p):
    # psi and d/dt psi share each block's exponentials, with the bits of the
    # two separate sums, on a non-uniform grid and on single points
    p, w = momentum_grid(-0.4, 7.0, n_p)
    amp = w * np.exp(-0.5 * (p + 0.4) ** 2 - 1.5j * p)
    dmp = -1j * np.sqrt(1.0 + p * p) * amp
    for xs in (np.linspace(-12.0, 12.0, 301) ** 3 / 144.0, np.array([0.7]), np.array([-3e3])):
        got = superpose(p, amp, dmp, xs)
        for g, a in zip(got, (amp, dmp)):
            ref = _ref_superpose_pairs(p, lambda t: np.broadcast_to(a, (len(t), len(p))),
                                       np.zeros(len(xs)), xs)
            assert np.array_equal(g, ref)


@pytest.mark.parametrize("family", ["gauss-free", "uniform-field"])
@pytest.mark.parametrize("sigma0", [0.05, 0.3, 3.0, 10.0])
@pytest.mark.parametrize("gamma0", [1.0, 10.0, 30.0])
def test_mode_sums_are_normalized_by_discrete_parseval(family, sigma0, gamma0):
    # 2 pi sum_j w_j |a_j(0)|^2 = 1 on the nodes themselves: the Gaussian
    # spectrum's analytic normalization, with no numeric trim after it
    from relwave.field_packets import FieldPacketConfig, field_mode_basis
    from relwave.free_packets import GaussianPacketConfig, gauss_spectral
    from relwave.kinematics import FieldMotion, FreeMotion

    if family == "gauss-free":
        ms = gauss_spectral(GaussianPacketConfig(sigma0, FreeMotion.from_gamma(gamma0)),
                            30.0, 10.0)
    else:
        ms = field_mode_basis(FieldPacketConfig(sigma0, FieldMotion.from_gamma(gamma0, 0.1)),
                              30.0, 10.0)
    norm = 2.0 * np.pi * np.sum(ms.weights * np.abs(ms.modes(0.0, False)) ** 2)
    assert abs(norm - 1.0) < 1e-13


@pytest.mark.parametrize("n_p", [3, 2001, 9001])
def test_pair_blocks_stay_within_the_block_bound(n_p):
    # each block of times holds at most _PAIR_BLOCK points (one time when
    # Np exceeds it), and a pair has the bits of its one-point dense sum
    p, w = momentum_grid(0.5, 6.0, n_p)
    ts = np.linspace(0.0, 9.0, 37)
    xs = np.sin(ts) + 0.25 * ts
    seen = []

    def amp_rows(t):
        seen.append(len(t))
        return w * np.exp(-0.5 * (p - 0.5) ** 2 - 1j * np.sqrt(1.0 + p * p) * t[:, None])

    psi, = superpose_pairs(p, [amp_rows], ts, xs)
    assert sum(seen) == len(ts)
    assert max(seen) == max(1, min(len(ts), _PAIR_BLOCK // n_p))
    for k in (0, 17, 36):
        ref, _ = superpose(p, amp_rows(ts[k:k + 1])[0], amp_rows(ts[k:k + 1])[0],
                           xs[k:k + 1])
        assert psi[k] == ref[0]


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


def test_trapezoid_weights_have_the_bits_of_the_two_pass_form():
    # the weights were a zero array plus half of each gap on either side
    rng = np.random.default_rng(7)
    for n in (2, 3, 17, 3001):
        for scale in (1e-3, 1.0, 1e4):
            nodes = np.sort(rng.uniform(-scale, scale, n))
            ref = np.zeros(n)
            d = np.diff(nodes)
            ref[:-1] += 0.5 * d
            ref[1:] += 0.5 * d
            assert np.array_equal(trapezoid_weights(nodes), ref), (n, scale)


def test_next_fast_len_matches_scipy():
    # the chirp-z transform's FFT size, once scipy.fft's, for a complex transform
    from scipy.fft import next_fast_len

    for n in range(1, 20001):
        assert quadrature._next_fast_len(n) == next_fast_len(n), n
