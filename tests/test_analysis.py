import numpy as np
import pytest

from relwave.analysis import (BracketError, DensitySlice, GaussFitResult,
                              WaveSlice, best_sigma, charge_density,
                              expectation_x, find_peaks, gauss_similarity_psi,
                              gauss_similarity_rho, momentum_spectrum,
                              phase_trace)
from relwave import scenarios


def _gaussian_wave(xs, sigma, x0=0.0, p0=0.0):
    return (sigma * np.sqrt(np.pi)) ** -0.5 \
        * np.exp(-0.5 * ((xs - x0) / sigma) ** 2 + 1j * p0 * xs)


def test_slice_validation():
    xs = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        WaveSlice(t=0.0, xs=xs, psi=np.zeros(4, complex), dpsi_dt=np.zeros(5, complex))
    with pytest.raises(ValueError):
        WaveSlice(t=0.0, xs=xs[::-1], psi=np.zeros(5, complex), dpsi_dt=np.zeros(5, complex))
    with pytest.raises(ValueError):
        DensitySlice(t=0.0, xs=xs, rho=np.zeros(3))
    with pytest.raises(ValueError):
        GaussFitResult(score=1.0, sigma_star=0.0, imag_residual=0.0)


def test_charge_density_stationary_phase():
    xs = np.linspace(-5, 5, 301)
    f = np.exp(-xs**2)
    t = 0.7
    psi = f * np.exp(-1j * t)
    dpsi = -1j * psi
    dens = charge_density(WaveSlice(t=t, xs=xs, psi=psi, dpsi_dt=dpsi))
    assert np.allclose(dens.rho, f * f, atol=1e-14)


def test_charge_density_plane_wave():
    xs = np.linspace(-5, 5, 101)
    p, amp = 2.0, 0.3
    e = np.sqrt(1.0 + p * p)
    psi = amp * np.exp(1j * p * xs)
    dpsi = -1j * e * psi
    dens = charge_density(WaveSlice(t=0.0, xs=xs, psi=psi, dpsi_dt=dpsi))
    assert np.allclose(dens.rho, e * amp**2)
    assert np.all(dens.rho > 0)


def test_best_sigma_quadratic():
    sigma, val = best_sigma(lambda s: (-(s - 3.0) ** 2, -2.0 * (s - 3.0)), (0.1, 100.0))
    assert abs(sigma - 3.0) < 1e-12
    assert abs(val) < 1e-24


def test_best_sigma_gaussian_overlap_peaks_at_equal_widths():
    sigma0 = 2.4

    def overlap(s):
        r = 2.0 * s * sigma0 / (s * s + sigma0 * sigma0)
        dr = 2.0 * sigma0 * (sigma0 * sigma0 - s * s) / (s * s + sigma0 * sigma0) ** 2
        return np.sqrt(r), 0.5 * dr / np.sqrt(r)

    sigma, _ = best_sigma(overlap, (0.05, 50.0))
    assert abs(sigma / sigma0 - 1.0) < 1e-12


def test_best_sigma_bracket_error():
    with pytest.raises(BracketError):
        best_sigma(lambda s: (s, np.ones_like(s)), (0.1, 10.0))  # maximum at the edge
    with pytest.raises(BracketError):
        best_sigma(lambda s: (-s, -np.ones_like(s)), (0.1, 10.0))
    with pytest.raises(BracketError, match="keeps its sign"):
        # an interior maximum whose d/d sigma never changes sign
        best_sigma(lambda s: (-(s - 3.0) ** 2, np.ones_like(s)), (0.1, 100.0))
    # a numeric error, which the CLI reports with exit code 2; a zero
    # density has nothing to fit either
    assert issubclass(BracketError, ArithmeticError)
    xs = np.linspace(-5.0, 5.0, 101)
    with pytest.raises(BracketError, match="zero total"):
        gauss_similarity_rho(DensitySlice(t=0.0, xs=xs, rho=np.zeros_like(xs)), 0.0)


def _golden_best_sigma(objective, bracket):
    # the fit that the root of d/d sigma replaced: the same 64-point log
    # scan, one width per call, then a golden section on the maximum to
    # |d sigma / sigma| < 1e-6
    lo, hi = bracket
    grid = np.geomspace(lo, hi, 64)
    i0 = int(np.argmax([objective(s) for s in grid]))
    assert 0 < i0 < 63
    a, b = grid[i0 - 1], grid[i0 + 1]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > 1e-6 * b:
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


def _golden_fits(sl, dens, x_bar, p_bar):
    """(sigma*, score) of G_psi and of G_rho by the replaced route: each
    score by np.trapezoid at one width per call."""
    xs = sl.xs
    bracket = (float(np.min(np.diff(xs))), 0.5 * (xs[-1] - xs[0]))

    def gauss(s):
        return (s * np.sqrt(np.pi)) ** -0.5 * np.exp(-0.5 * ((xs - x_bar) / s) ** 2)

    weighted = sl.psi / np.sqrt(sl.norm()) * np.exp(-1j * p_bar * xs)
    denom = np.sqrt(np.trapezoid(np.abs(dens.rho), xs))
    pos = np.sqrt(np.where(dens.rho > 0.0, dens.rho, 0.0))
    return (_golden_best_sigma(lambda s: abs(np.trapezoid(gauss(s) * weighted, xs)) ** 2,
                               bracket),
            _golden_best_sigma(lambda s: np.trapezoid(gauss(s) * pos, xs) / denom, bracket))


def _builtin_slices(name, case, times):
    """The observations of one case of a builtin scenario at the given
    times, on the scenario's grid."""
    scn = scenarios.builtin_scenarios()[name]
    pk = next(pk for c, pk in zip(scn.cases, scn.packets) if c.items() >= case.items())
    xs = np.linspace(scn.x_min, scn.x_max, scn.x_count)
    return [pk.observe(t, xs) for t in times]


_ORACLE_SLICES = [
    ("fig2", {"vartheta": 0.1}, (0.0, 10.0, 20.0)),
    ("fig2", {"vartheta": 100.0}, (0.0, 10.0, 20.0)),
    ("fig5", {"sigma0": 0.3, "gamma0": 10.0}, (0.0, 8.0, 16.0)),
    ("fig8", {"sigma0": 3.0, "gamma0": 1.0}, (36.0, 40.0)),
]


@pytest.mark.parametrize("name,case,times", _ORACLE_SLICES)
def test_fits_agree_with_the_golden_section_route(name, case, times):
    # the root of d/d sigma finds the maximum that the scan plus golden
    # section found, to that search's 1e-6; fig8's (3, 1) G_psi at t = 40
    # keeps its global maximum near sigma = 0.17, far from the moment width
    for obs in _builtin_slices(name, case, times):
        (sig_psi, g_psi), (sig_rho, g_rho) = _golden_fits(obs.slice, obs.density,
                                                          obs.x_bar, obs.p_bar)
        fit_psi, fit_rho = obs.fit_psi, obs.fit_rho
        assert abs(fit_psi.sigma_star / sig_psi - 1.0) < 1e-6
        assert abs(fit_rho.sigma_star / sig_rho - 1.0) < 1e-6
        assert abs(fit_psi.score - g_psi) < 1e-12
        assert abs(fit_rho.score - g_rho) < 1e-12


def test_fitted_widths_are_determinate():
    # each value moved by up to 1e-16 of itself, below the rounding of any
    # route that builds it: the scores then agree to about 17 digits, yet
    # the golden section's width moved by up to 5e-7 of itself.  (A move of
    # 1e-16 of the density's maximum is another matter: sqrt(rho) near the
    # zeros of rho turns it into a 3e-9 move of G_rho itself.)
    rng = np.random.default_rng(7)
    (obs,) = _builtin_slices("fig8", {"sigma0": 0.3, "gamma0": 1.0}, (36.0,))
    sl, dens, x_bar, p_bar = obs.slice, obs.density, obs.x_bar, obs.p_bar
    rho = dens.rho * (1.0 + 1e-16 * rng.uniform(-1.0, 1.0, len(sl.xs)))
    psi = sl.psi * (1.0 + 1e-16 * rng.uniform(-1.0, 1.0, len(sl.xs)))
    pairs = [
        (gauss_similarity_rho(dens, x_bar),
         gauss_similarity_rho(DensitySlice(t=dens.t, xs=dens.xs, rho=rho), x_bar)),
        (gauss_similarity_psi(sl, x_bar, p_bar),
         gauss_similarity_psi(WaveSlice(t=sl.t, xs=sl.xs, psi=psi, dpsi_dt=sl.dpsi_dt),
                              x_bar, p_bar)),
    ]
    for fit, moved in pairs:
        assert abs(moved.sigma_star / fit.sigma_star - 1.0) <= 1e-12


def test_gauss_similarity_psi_self_overlap():
    xs = np.linspace(-20, 20, 3001)
    wave = WaveSlice(t=0.0, xs=xs, psi=_gaussian_wave(xs, 2.0, p0=0.6),
                     dpsi_dt=np.zeros_like(xs, dtype=complex))
    fit = gauss_similarity_psi(wave, 0.0, 0.6)
    assert abs(fit.score - 1.0) < 1e-8
    assert abs(fit.sigma_star - 2.0) < 1e-6


def test_gauss_similarity_phase_invariance():
    xs = np.linspace(-20, 20, 2001)
    psi = _gaussian_wave(xs, 1.3, x0=0.4, p0=0.2)
    base = WaveSlice(t=0.0, xs=xs, psi=psi, dpsi_dt=np.zeros_like(psi))
    rot = WaveSlice(t=0.0, xs=xs, psi=psi * np.exp(1j * 1.234),
                    dpsi_dt=np.zeros_like(psi))
    f0 = gauss_similarity_psi(base, 0.4, 0.2)
    f1 = gauss_similarity_psi(rot, 0.4, 0.2)
    assert abs(f0.score - f1.score) < 1e-12
    assert abs(f0.sigma_star - f1.sigma_star) < 1e-9


def test_gauss_similarity_rho_identity():
    xs = np.linspace(-15, 15, 4001)
    sigma = 1.5
    rho = np.exp(-((xs / sigma) ** 2)) / (sigma * np.sqrt(np.pi))
    fit = gauss_similarity_rho(DensitySlice(t=0.0, xs=xs, rho=rho), 0.0)
    assert abs(fit.score - 1.0) < 1e-7
    assert abs(fit.sigma_star - 1.5) < 1.5e-4
    assert fit.imag_residual == 0.0


def test_gauss_similarity_rho_recovers_generator_width():
    xs = np.linspace(-25, 25, 5001)
    sigma0 = 3.7
    rho = np.exp(-(((xs - 1.0) / sigma0) ** 2)) / (sigma0 * np.sqrt(np.pi))
    fit = gauss_similarity_rho(DensitySlice(t=0.0, xs=xs, rho=rho), 1.0)
    assert abs(fit.sigma_star / sigma0 - 1.0) < 1e-4


def test_gauss_similarity_rho_imag_residual():
    xs = np.linspace(-10, 10, 2001)
    rho = np.exp(-(xs**2)) / np.sqrt(np.pi) - 0.02 * np.exp(-((np.abs(xs) - 2.0) ** 2) * 4)
    fit = gauss_similarity_rho(DensitySlice(t=0.0, xs=xs, rho=rho), 0.0)
    assert fit.imag_residual > 1e-3     # negative lobes surface, not vanish
    assert fit.score < 1.0


def test_momentum_spectrum_gaussian():
    xs = np.linspace(-40, 40, 4096)
    sigma0, p0 = 1.5, 2.0
    wave = WaveSlice(t=0.0, xs=xs, psi=_gaussian_wave(xs, sigma0, p0=p0),
                     dpsi_dt=np.zeros(len(xs), complex))
    spec = momentum_spectrum(wave)
    assert spec.flags == ()
    peak = spec.p[int(np.argmax(spec.rho_tilde))]
    assert abs(peak - p0) < 0.05
    # |FT|^2 of the sigma0 Gaussian has half-width 1/sigma0 in this convention
    ref = (sigma0 / np.sqrt(np.pi)) * np.exp(-sigma0**2 * (spec.p - p0) ** 2)
    assert np.max(np.abs(spec.rho_tilde - ref)) < 1e-6


def test_momentum_spectrum_parseval():
    xs = np.linspace(-30, 30, 2048)
    wave = WaveSlice(t=0.0, xs=xs, psi=_gaussian_wave(xs, 0.8, p0=-1.0),
                     dpsi_dt=np.zeros(len(xs), complex))
    spec = momentum_spectrum(wave)
    mass_p = np.trapezoid(spec.rho_tilde, spec.p)
    mass_x = wave.norm()
    assert abs(mass_p / mass_x - 1.0) < 1e-6


def test_momentum_spectrum_boundary_flag():
    xs = np.linspace(-3, 3, 256)
    wave = WaveSlice(t=0.0, xs=xs, psi=_gaussian_wave(xs, 4.0),
                     dpsi_dt=np.zeros(len(xs), complex))
    spec = momentum_spectrum(wave)
    assert any("boundary-mass" in f for f in spec.flags)


def test_momentum_spectrum_requires_uniform_grid():
    xs = np.concatenate([np.linspace(-1, 0, 50), np.linspace(0.013, 1, 50)])
    wave = WaveSlice(t=0.0, xs=xs, psi=np.ones(100, complex),
                     dpsi_dt=np.zeros(100, complex))
    with pytest.raises(ValueError):
        momentum_spectrum(wave)


def test_expectation_x():
    xs = np.linspace(-10, 18, 1001)
    w = np.exp(-((xs - 4.0) ** 2))
    assert abs(expectation_x(xs, w) - 4.0) < 1e-10
    with pytest.raises(ValueError):
        expectation_x(xs, np.zeros_like(xs))


def test_find_peaks_single_and_double():
    xs = np.linspace(-20, 20, 2001)
    single = DensitySlice(t=0.0, xs=xs, rho=np.exp(-(xs**2)))
    assert len(find_peaks(single)) == 1
    two = DensitySlice(t=0.0, xs=xs,
                       rho=np.exp(-((xs - 6.0) ** 2)) + np.exp(-((xs + 6.0) ** 2)))
    peaks = find_peaks(two)
    assert len(peaks) == 2
    dx = xs[1] - xs[0]
    assert abs(peaks[0][0] + 6.0) <= dx and abs(peaks[1][0] - 6.0) <= dx


def test_find_peaks_empty_for_ramp():
    xs = np.linspace(0, 1, 101)
    assert find_peaks(DensitySlice(t=0.0, xs=xs, rho=xs.copy())) == []


def _scipy_peaks(density, min_prominence):
    signal = pytest.importorskip("scipy.signal")
    idx, _ = signal.find_peaks(density.rho, prominence=min_prominence * np.max(density.rho))
    return [(float(density.xs[i]), float(density.rho[i])) for i in idx]


def test_find_peaks_matches_scipy_on_the_lightcone_densities():
    # criterion 4's sub-Compton packet, split into two lightcone peaks, and
    # the same packet at earlier times
    from relwave.acceptance import _closed_sweep

    for r in _closed_sweep(0.1, (0.0, 2.0, 10.0, 20.0), -30.0, 30.0, 6001):
        for prominence in (0.0, 0.05, 0.5):
            assert find_peaks(r.density, prominence) == _scipy_peaks(r.density, prominence)


def test_find_peaks_matches_scipy_on_plateaus():
    # small integers give flat tops of every width, at the ends too, and
    # ties between a peak's bases
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 5, 40, 400):
        for _ in range(40):
            rho = rng.integers(0, 6, n).astype(float) - rng.integers(0, 2)
            if np.max(rho) <= 0.0:
                continue
            density = DensitySlice(t=0.0, xs=np.arange(n) * 0.1, rho=rho)
            for prominence in (0.0, 0.2, 0.6):
                assert find_peaks(density, prominence) == _scipy_peaks(density, prominence)


def test_phase_trace_linear_phase():
    omega = 2.2
    tr = phase_trace(lambda ts, xs: np.exp(-1j * omega * ts),
                     lambda t: 0.0,
                     lambda t: -omega * t,
                     np.linspace(0.0, 10.0, 11))
    assert np.max(np.abs(tr.offset)) < 1e-12
    assert np.max(np.abs(tr.phi + omega * tr.ts)) < 1e-12


def test_phase_trace_refines_fast_rotation():
    # increments of 0.97 pi per step, at least the 0.95 pi that triggers a
    # bisection and below the pi that unwrapping could not resolve: one
    # bisection round, after which the phase follows the action exactly
    omega = 1.94 * np.pi
    calls = []

    def evaluator(ts, xs):
        calls.append(len(ts))
        return np.exp(-1j * omega * ts)

    tr = phase_trace(evaluator, lambda t: 0.0, lambda t: -omega * t,
                     np.linspace(0.0, 5.0, 11))
    assert calls == [11, 10]
    assert np.max(np.abs(tr.offset)) < 1e-12


def test_phase_trace_calls_the_evaluator_once_per_round():
    # one call for the requested times, one for each bisection round with
    # all of that round's midpoints; increments of 3 rad need one round
    calls = []

    def evaluator(ts, xs):
        calls.append(len(ts))
        return np.exp(-6j * ts)

    phase_trace(evaluator, lambda t: 0.0, lambda t: 0.0, np.linspace(0.0, 5.0, 11))
    assert calls == [11, 10]


def test_phase_trace_unwrap_failure_raises():
    # a genuine phase jump of 0.98 pi survives every bisection level
    with pytest.raises(ArithmeticError):
        phase_trace(lambda ts, xs: np.exp(1j * 0.98 * np.pi * (ts >= 0.5)),
                    lambda t: 0.0, lambda t: 0.0,
                    np.linspace(0.0, 1.0, 6))


def test_phase_slope_matches_action_rate_at_late_times():
    # initially Gaussian packet at gamma0 = 10: d(phi)/dt -> -1/gamma0 once
    # the dispersion correction ~ E''(p0)/(2 sigma0^2 t ...) has decayed
    from relwave.free_packets import GaussianPacketConfig, gauss_spectral
    from relwave.kinematics import FreeMotion

    motion = FreeMotion.from_gamma(10.0)
    cfg = GaussianPacketConfig(sigma0=0.3, motion=motion)
    pk = gauss_spectral(cfg, 205.0, 200.0)
    ts = np.linspace(150.0, 200.0, 51)
    tr = phase_trace(pk.psi_at, motion.x, motion.action, ts)
    slope = np.polyfit(tr.ts, tr.phi, 1)[0]
    assert abs(slope / (-1.0 / motion.gamma0) - 1.0) < 0.02
