import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwave import free_packets, packets, quadrature
from relwave.analysis import charge_density, expectation_x, momentum_spectrum
from relwave.free_packets import (ClosedPacketConfig, GaussianPacketConfig,
                                  closed_spectral, gauss_spectral, gauss_spectrum,
                                  energy, spectrum_closed, w_of_p)
from relwave.kinematics import FreeMotion
from relwave.packets import packet_for
from relwave.specfun import bessel_k1

MOTION_QUARTER = FreeMotion(v0=0.25)


def _closed(vartheta, v0=0.25, x0=0.0):
    # the closed form needs no grid: the extent and time span do not enter
    return packet_for({"vartheta": vartheta, "v0": v0, "x0": x0}, "closed-free", 0.0, 0.0)


def _gauss(sigma0, gamma0, x_extent, t_max, x0=0.0):
    return packet_for({"sigma0": sigma0, "gamma0": gamma0, "x0": x0}, "gauss-free",
                      x_extent, t_max)


def test_w_of_p_rest_energy():
    assert w_of_p(0.0, FreeMotion(v0=0.0)) == 1.0


def test_w_of_p_minimum_at_classical_momentum():
    m = MOTION_QUARTER
    w0 = float(w_of_p(m.p0, m))
    assert abs(w0 - 1.0 / m.gamma0) < 1e-12          # equals -L_cl in value
    h = 1e-6
    deriv = (w_of_p(m.p0 + h, m) - w_of_p(m.p0 - h, m)) / (2 * h)
    assert abs(deriv) < 1e-9


def test_w_of_p_positive_everywhere():
    fast = FreeMotion(v0=0.99)
    p = np.linspace(-50.0, 50.0, 1001)
    assert np.all(w_of_p(p, fast) > 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ClosedPacketConfig(vartheta=0.0, motion=MOTION_QUARTER)
    for sigma0 in (-1.0, np.nan):
        with pytest.raises(ValueError, match="sigma0"):
            GaussianPacketConfig(sigma0=sigma0, motion=MOTION_QUARTER)


def test_closed_form_matches_spectral_quadrature():
    cfg = ClosedPacketConfig(vartheta=1.0, motion=MOTION_QUARTER)
    xs = np.linspace(-25.0, 25.0, 161)
    sl = _closed(1.0).slice(10.0, xs)
    ref, _ = closed_spectral(cfg, 30.0, 10.0).psi_dpsi(10.0, xs)
    assert np.max(np.abs(sl.psi - ref)) < 1e-6 * np.max(np.abs(ref))


def test_closed_norm_conserved():
    for vt, t in ((1.0, 0.0), (1.0, 10.0), (10.0, 20.0)):
        xs = np.linspace(-35.0, 40.0, 3001)
        assert abs(_closed(vt).slice(t, xs).norm() - 1.0) < 1e-5


def test_closed_single_peak_tracks_classical_position():
    pk = _closed(100.0)
    for t in (0.0, 10.0):
        xs = np.linspace(-40.0 + 0.25 * t, 40.0 + 0.25 * t, 2001)
        sl = pk.slice(t, xs)
        dens = np.abs(sl.psi) ** 2
        assert abs(xs[int(np.argmax(dens))] - 0.25 * t) < 0.5
        assert abs(expectation_x(xs, dens) - 0.25 * t) < 1e-4


def test_psi_closed_scalar_api():
    # one point gives the bits of that point in a grid evaluation, and psi
    # alone the bits of psi evaluated with d/dt psi
    pk = _closed(10.0)
    psi, dpsi = pk.psi_dpsi(5.0, np.array([1.25]))
    assert psi.shape == dpsi.shape == (1,)
    psis, dpsis = pk.psi_dpsi(5.0, np.linspace(1.25, 2.0, 4))
    assert psis[0] == psi[0] and dpsis[0] == dpsi[0]
    assert pk.psi_at(np.array([5.0]), np.array([1.25]))[0] == psi[0]


def test_spectrum_closed_peak_and_ratio():
    cfg = ClosedPacketConfig(vartheta=10.0, motion=MOTION_QUARTER)
    p = np.linspace(-2.0, 3.0, 5001)
    vals = spectrum_closed(p, cfg)
    assert abs(p[int(np.argmax(vals))] - MOTION_QUARTER.p0) < 2e-3

    rest = ClosedPacketConfig(vartheta=10.0, motion=FreeMotion(v0=0.0))
    ratio = spectrum_closed(1.0, rest) / spectrum_closed(0.0, rest)
    assert abs(ratio / np.exp(-20.0 * (np.sqrt(2.0) - 1.0)) - 1.0) < 1e-12


def test_spectrum_closed_matches_slice_transform():
    # the sampled momentum density reproduces the analytic distribution at
    # two different times (it is time independent)
    cfg = ClosedPacketConfig(vartheta=1.0, motion=MOTION_QUARTER)
    xs = np.linspace(-40.0, 45.0, 4001)
    for t in (0.0, 20.0):
        sl = _closed(1.0).slice(t, xs)
        spec = momentum_spectrum(sl)
        analytic = spectrum_closed(spec.p, cfg)
        sel = analytic > 1e-3 * analytic.max()
        num = spec.rho_tilde / spec.rho_tilde.max()
        ana = analytic / analytic.max()
        assert np.max(np.abs(num[sel] - ana[sel])) < 1e-4


def test_gauss_initial_slice_is_the_gaussian():
    # gamma0 = sqrt(1.25) is the momentum p0 = 0.5
    cfg = GaussianPacketConfig(sigma0=3.0, motion=FreeMotion.from_gamma(np.sqrt(1.25), x0=1.0))
    xs = np.linspace(-24.0, 26.0, 2001)
    sl = _gauss(3.0, np.sqrt(1.25), 27.0, 0.0, x0=1.0).slice(0.0, xs)
    ref = (cfg.sigma0 * np.sqrt(np.pi)) ** -0.5 \
        * np.exp(-0.5 * ((xs - 1.0) / 3.0) ** 2 + 1j * 0.5 * (xs - 1.0))
    assert np.max(np.abs(sl.psi - ref)) < 1e-8
    assert np.max(np.abs(sl.psi) ** 2
                  - np.abs(ref) ** 2) < 1e-8


def test_gauss_norm_conserved():
    pk = _gauss(0.3, 10.0, 47.0, 16.0)
    for t in (0.0, 8.0, 16.0):
        xs = np.linspace(-30.0, 30.0 + t, 4001)
        assert abs(pk.slice(t, xs).norm() - 1.0) < 1e-5


def test_gauss_narrow_packet_has_negative_density():
    xs = np.linspace(-15.0, 15.0, 3001)
    dens = charge_density(_gauss(0.3, 1.0, 16.0, 0.0).slice(0.0, xs))
    assert dens.rho.min() < 0.0


def test_gauss_suppression_criterion():
    fast = FreeMotion.from_gamma(10.0)
    assert abs(fast.p0 - np.sqrt(99.0)) < 1e-12    # ~9.95
    xs = np.linspace(-12.0, 12.0, 6001)
    spec = momentum_spectrum(_gauss(0.3, 10.0, 13.0, 0.0).slice(0.0, xs))
    at = lambda q: float(np.interp(q, spec.p, spec.rho_tilde))
    assert at(-1.0) / at(fast.p0) < np.exp(-9.0)

    slow = FreeMotion.from_gamma(1.0)
    spec2 = momentum_spectrum(_gauss(0.3, 1.0, 13.0, 0.0).slice(0.0, xs))
    at2 = lambda q: float(np.interp(q, spec2.p, spec2.rho_tilde))
    assert at2(-1.0) / at2(slow.p0) > np.exp(-1.0)


@pytest.mark.parametrize("gamma0", [3.0, 10.0, 30.0])
def test_gauss_spectrum_is_centred_on_the_classical_momentum(gamma0):
    # the packet's t = 0 modes are the Gaussian spectrum about the very
    # (x_bar, p_bar) its scores compare it with, bit for bit
    pk = _gauss(0.3, gamma0, 10.0, 0.0, x0=1.5)
    obs = pk.observe(0.0, np.linspace(-10.0, 10.0, 201))
    x_bar, p_bar = obs.x_bar, obs.p_bar
    cfg = GaussianPacketConfig(sigma0=0.3, motion=FreeMotion.from_gamma(gamma0, x0=1.5))
    ms = gauss_spectral(cfg, 10.0, 0.0)
    assert np.array_equal(ms.modes(0.0, False), gauss_spectrum(ms.p, 0.3, p_bar, x_bar))


def test_psi_gauss_free_scalar_api():
    pk = _gauss(3.0, 1.0, 10.0, 5.0)
    psi, dpsi = pk.psi_dpsi(4.0, np.array([0.5]))
    # d/dt weighting is -iE: for a near-rest packet phase rotates at ~ -i m
    assert abs(dpsi[0] / psi[0] + 1j) < 0.2
    # a point gives the bits of that point on a non-uniform grid (the dense
    # route; a uniform grid takes the chirp-z route, equal to its bound)
    psis, dpsis = pk.psi_dpsi(4.0, np.array([0.5, 0.75, 2.0]))
    assert psis[0] == psi[0] and dpsis[0] == dpsi[0]
    assert pk.psi_at(np.array([4.0]), np.array([0.5]))[0] == psi[0]


def test_spectral_packet_unit_norm():
    # the spectrum is normalized analytically; no numeric trim follows
    cfg = GaussianPacketConfig(sigma0=0.3, motion=FreeMotion(v0=2.0 / np.sqrt(5.0)))
    pk = gauss_spectral(cfg, 20.0, 5.0)
    xs = np.linspace(-20.0, 20.0, 4001)
    psi, _ = pk.psi_dpsi(0.0, xs)
    assert abs(np.trapezoid(np.abs(psi) ** 2, xs) - 1.0) < 1e-6


@pytest.mark.parametrize("gamma0", [1.0, 10.0])
@pytest.mark.parametrize("sigma0", [0.3, 1.0])
def test_gauss_spectral_matches_the_full_window_sum(sigma0, gamma0):
    # the sum over |p - p0| <= max(7.43/sigma0, 12), where the spectrum falls
    # to 1e-12 of its peak, against the same plane waves over
    # max(12/sigma0, 12): psi and d/dt psi to 1e-11 of their maxima on a
    # grid and at phase-trace points (measured: 1.5e-12)
    x_extent, t_max = 41.0, 16.0
    cfg = GaussianPacketConfig(sigma0=sigma0, motion=FreeMotion.from_gamma(gamma0))
    m = cfg.motion
    ms = gauss_spectral(cfg, x_extent, t_max)
    width = max(free_packets._TAIL_WIDTH / sigma0, 12.0)
    assert abs(ms.p[-1] - m.p0 - width) < 1e-12 * width
    half = max(12.0 / sigma0, 12.0)
    dp = free_packets._node_spacing(x_extent, t_max, 1.0 / sigma0)
    p, weights = quadrature.momentum_grid(m.p0, half, max(int(2 * half / dp) | 1, 401))
    amp, e = gauss_spectrum(p, sigma0, m.p0, m.x0), energy(p)

    def modes(t, derivatives):
        a = amp * np.exp(-1j * e * t)
        return (a, -1j * e * a) if derivatives else a

    full = quadrature.ModeSum(p=p, weights=weights, modes=modes)
    ts = np.array([-12.0, 0.0, 8.0, 16.0])
    xbar = np.array([m.x(t) for t in ts])
    xs = np.linspace(-40.0, 40.0, 1601)
    ref_trace = full.psi_at(ts, xbar)
    assert np.max(np.abs(ms.psi_at(ts, xbar) - ref_trace)) < 1e-11 * np.max(np.abs(ref_trace))
    for t, x in zip(ts, xbar):
        ref = full.psi_dpsi(t, xs)
        scale = [np.max(np.abs(r)) for r in ref]
        for got, r, sc in zip(ms.psi_dpsi(t, xs), ref, scale):
            assert np.max(np.abs(got - r)) < 1e-11 * sc
        for got, r, sc in zip(ms.psi_dpsi(t, np.array([x])), full.psi_dpsi(t, np.array([x])),
                              scale):
            assert abs(got[0] - r[0]) < 1e-11 * sc


def test_spectral_time_derivative_against_closed_form():
    # the analytic d/dt psi of the closed packet (the K1 expression differentiated)
    # against the plane-wave sum of closed_spectral, each mode weighted by
    # -i E/hbar
    t = 7.0
    for vt in (0.1, 2.0, 100.0):
        for v0 in (0.0, 0.25, 0.9):
            cfg = ClosedPacketConfig(vartheta=vt, motion=FreeMotion(v0=v0, x0=0.5))
            xs = 0.5 + v0 * t + np.linspace(-12.0, 12.0, 401)
            sl = _closed(vt, v0, 0.5).slice(t, xs)
            ref_psi, ref = closed_spectral(cfg, 30.0, 10.0).psi_dpsi(t, xs)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(sl.dpsi_dt - ref)) < 1e-8 * scale, (vt, v0)
            assert np.max(np.abs(sl.psi - ref_psi)) < 1e-8 * np.max(np.abs(ref_psi))


def test_closed_slice_at_v0_0999_builds_no_spectral_packet(monkeypatch):
    # counted wherever the packets could look the builder up
    builds = []
    for module in (free_packets, packets):
        monkeypatch.setattr(module, "closed_spectral",
                            lambda *args: builds.append(args) or closed_spectral(*args),
                            raising=False)
    pk = _closed(1.0, v0=0.999)
    sl = pk.slice(5.0, np.linspace(-30.0, 40.0, 2001))
    assert builds == []
    assert np.all(np.isfinite(sl.psi)) and np.all(np.isfinite(sl.dpsi_dt))
    psi, dpsi = pk.psi_dpsi(5.0, np.array([4.995]))
    assert np.isfinite(psi[0]) and np.isfinite(dpsi[0])
    assert builds == []


@pytest.mark.parametrize("vartheta", [400.0, 1000.0])
def test_wide_closed_packet_stays_finite_and_normalized(vartheta):
    # K1 of the normalization underflows here; the exponents are combined
    pk = _closed(vartheta, v0=0.0)
    sl = pk.slice(0.0, np.linspace(-300.0, 300.0, 6001))
    assert np.all(np.isfinite(sl.psi)) and np.all(np.isfinite(sl.dpsi_dt))
    assert abs(sl.norm() - 1.0) < 1e-5
    p = np.linspace(-1.0, 1.0, 20001)
    spec = pk.spectrum(p, 0.0)
    assert np.all(np.isfinite(spec))
    assert abs(np.trapezoid(spec, p) - 1.0) < 1e-9


def test_group_center_slope_across_widths():
    # <x> stays on v0 t for wide and sub-Compton packets alike
    for vt in (1.0, 0.1):
        xs = np.linspace(-16.0, 19.0, 1401)
        sl = _closed(vt).slice(10.0, xs)
        assert abs(expectation_x(xs, np.abs(sl.psi) ** 2) - 2.5) < 1e-3


@pytest.mark.parametrize("vartheta,v0,x0", [(0.1, 0.25, 0.5), (2.0, 0.9, -1.5),
                                            (100.0, 0.6, 3.0), (1000.0, 0.3, 2.0)])
def test_closed_packet_folds_onto_plane_waves(vartheta, v0, x0):
    # the closed-ansatz modes exp(-(vartheta + i t) W/hbar + i p (x - x0 -
    # v0 t)/hbar), summed as before the fold into plane waves; exp(z_n/2)
    # of the normalization |N|^2 = 1/(4 pi gamma0 K1(z_n)) (z_n = 2
    # vartheta/gamma0 here) rides in the exponent, as in closed_spectral
    cfg = ClosedPacketConfig(vartheta=vartheta, motion=FreeMotion(v0=v0, x0=x0))
    pk = closed_spectral(cfg, 20.0, 20.0)
    e = energy(pk.p)
    half_zn = vartheta / cfg.motion.gamma0
    k1e = bessel_k1(2.0 * half_zn, scaled=True).real
    norm = 1.0 / np.sqrt(4.0 * np.pi * cfg.motion.gamma0 * k1e)
    for t in (0.0, 7.0, 20.0):
        xs = x0 + v0 * t + np.linspace(-10.0, 10.0, 81)
        gt = norm * pk.weights * np.exp(half_zn - (vartheta + 1j * t)
                                        * w_of_p(pk.p, cfg.motion))
        block = np.exp(1j * np.outer(xs - x0 - v0 * t, pk.p))
        psi_ref, dpsi_ref = block @ gt, block @ (gt * -1j * e)
        psi, dpsi = pk.psi_dpsi(t, xs)
        assert np.max(np.abs(psi - psi_ref)) <= 1e-12 * np.max(np.abs(psi_ref))
        assert np.max(np.abs(dpsi - dpsi_ref)) <= 1e-12 * np.max(np.abs(dpsi_ref))


def test_closed_spectral_finite_past_the_k1_overflow():
    # z_n/2 = 1000 > 709: exp(z_n/2) alone overflows, folded into the
    # spectrum's exponent it does not
    cfg = ClosedPacketConfig(vartheta=1000.0, motion=FreeMotion(v0=0.3, x0=2.0))
    pk = closed_spectral(cfg, 30.0, 10.0)
    assert np.all(np.isfinite(pk.modes(0.0, False)))
    for t in (0.0, 7.0):
        xs = 2.0 + 0.3 * t + np.linspace(-12.0, 12.0, 401)
        psi, dpsi = pk.psi_dpsi(t, xs)
        assert np.all(np.isfinite(psi)) and np.all(np.isfinite(dpsi))
        sl = _closed(1000.0, v0=0.3, x0=2.0).slice(t, xs)
        assert np.max(np.abs(sl.psi - psi)) < 1e-8 * np.max(np.abs(psi))
        assert np.max(np.abs(sl.dpsi_dt - dpsi)) < 1e-8 * np.max(np.abs(dpsi))


def _branch_arg(t, x, v0, vartheta):
    # square-root argument of the closed form (m = c = hbar = 1, x0 = 0)
    return (x - 1j * v0 * vartheta) ** 2 - (t - 1j * vartheta) ** 2


_VELOCITY = st.floats(-0.999, 0.999)
_VARTHETA = st.floats(0.05, 1000.0)


@settings(max_examples=300, deadline=None)
@given(t=st.floats(-50.0, 50.0), x=st.floats(-100.0, 100.0), v0=_VELOCITY,
       vartheta=_VARTHETA)
def test_closed_form_branch_argument_avoids_the_cut(t, x, v0, vartheta):
    a = _branch_arg(t, x, v0, vartheta)
    assert a.imag != 0.0 or a.real > 0.0


@settings(max_examples=300, deadline=None)
@given(t=st.floats(-50.0, 50.0), v0=_VELOCITY.filter(lambda v: abs(v) > 0.05),
       vartheta=_VARTHETA)
def test_closed_form_branch_argument_positive_where_real(t, v0, vartheta):
    # Im a = 0 on x = c^2 t / v0, where Re a is bounded away from zero
    a = _branch_arg(t, t / v0, v0, vartheta)
    assert a.real >= 0.5 * vartheta**2 * (1.0 - v0**2)
