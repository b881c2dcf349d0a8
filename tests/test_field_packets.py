import numpy as np
import pytest

from relwave import field_packets, scenarios
from relwave.analysis import charge_density, expectation_x, find_peaks
from relwave.field_packets import (FieldPacketConfig, field_mode_basis,
                                   field_slice, mode_coeffs, mode_psi,
                                   mode_ray_weight, psi_field)
from relwave.kinematics import field_trajectory
from relwave.specfun import pcf_d, pcf_d_dz

F = 0.1


def _cfg(sigma0, gamma0):
    return FieldPacketConfig.from_gamma(sigma0, gamma0, force=F)


def test_config_defaults_and_validation():
    cfg = _cfg(3.0, 1.0)
    assert cfg.x0 == 10.0            # hyperbola vertex c/alpha
    assert cfg.m_transverse_sq == 1.0
    with pytest.raises(ValueError):
        FieldPacketConfig(sigma0=3.0, force=0.0)
    with pytest.raises(ValueError):
        FieldPacketConfig(sigma0=0.0, force=0.1)


def test_projection_factors_are_conjugate_pairs():
    # the weight attached to c+ is the conjugate of the mode it multiplies
    p = np.linspace(-3.0, 3.0, 7)
    lhs = pcf_d(-0.5 + 5.0j, (1.0 - 1.0j) / np.sqrt(F) * p)
    rhs = np.conj(pcf_d(-0.5 - 5.0j, (1.0 + 1.0j) / np.sqrt(F) * p))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_gaussian_factor_is_one_at_p0():
    cfg = FieldPacketConfig(sigma0=3.0, force=F, p0=0.7, x0=4.0)
    c = mode_coeffs(np.array([0.7]), cfg)
    g = mode_ray_weight(np.array([0.7]), cfg)
    fp = pcf_d(-0.5 - 5.0j, (1.0 + 1.0j) / np.sqrt(F) * 0.7)
    spectrum_peak = np.sqrt(3.0 / (2.0 * np.pi**1.5)) * np.exp(-1j * 0.7 * 4.0)
    assert abs(c.c_plus[0] * g[0] / np.conj(fp) - spectrum_peak) < 1e-10


def test_mode_reconstruction_is_proportional_to_gaussian():
    cfg = _cfg(3.0, 1.0)
    p = np.linspace(-3.0, 3.0, 121)
    c = mode_coeffs(p, cfg)
    fp = pcf_d(-0.5 - 5.0j, (1.0 + 1.0j) / np.sqrt(F) * p)
    fm = pcf_d(-0.5 + 5.0j, (1.0j - 1.0) / np.sqrt(F) * p)
    recon = c.c_plus * fp + c.c_minus * fm
    gauss = np.exp(-0.5 * cfg.sigma0**2 * (p - cfg.p0) ** 2 - 1j * p * cfg.x0)
    ratio = recon / gauss
    assert np.max(np.abs(ratio / ratio[len(p) // 2] - 1.0)) < 1e-6


def test_ray_weight_is_not_constant():
    # the projection really needs the 1/g(p) factor: g falls off with |p|
    cfg = _cfg(3.0, 1.0)
    g = mode_ray_weight(np.array([0.0, 3.0]), cfg)
    assert g[0] / g[1] > 2.0


def test_mode_ode_residual():
    cfg = _cfg(0.3, 1.0)
    p = np.array([-1.3, 0.4, 2.0])
    h = 1e-4
    for t in (-12.0, 0.0, 17.0, 40.0):
        _, d_plus = mode_psi(t + h, p, cfg)
        _, d_minus = mode_psi(t - h, p, cfg)
        psi_t, _ = mode_psi(t, p, cfg)
        second = (d_plus - d_minus) / (2 * h)
        omega_sq = (p + F * t) ** 2 + 1.0
        resid = np.abs(second + omega_sq * psi_t)
        assert np.all(resid < 1e-6 * np.abs(psi_t) * (omega_sq + 1.0))


def test_adiabatic_flat_modulus_at_weak_force():
    cfg = FieldPacketConfig(sigma0=3.0, force=1e-3, p0=0.0)
    vals = []
    for t in (0.0, 0.5, 1.0):
        psi_t, _ = mode_psi(t, np.array([0.0]), cfg)
        vals.append(abs(psi_t[0]))
    assert max(vals) / min(vals) - 1.0 < 0.01


def test_initial_state_fidelity_and_norm():
    cfg = _cfg(0.3, 10.0)
    xs = np.linspace(-30.0, 50.0, 4001)
    sl = field_slice(0.0, xs, cfg)
    gauss = (cfg.sigma0 * np.sqrt(np.pi)) ** -0.5 \
        * np.exp(-0.5 * ((xs - cfg.x0) / cfg.sigma0) ** 2
                 + 1j * cfg.p0 * (xs - cfg.x0))
    assert np.max(np.abs(sl.psi - gauss)) < 1e-5
    assert abs(sl.norm() - 1.0) < 1e-6


def test_wide_packet_rides_the_classical_trajectory():
    # the charge centroid lags the point-particle hyperbola by an
    # O(sigma0^2 alpha) offset that reaches ~0.21 at t = 16
    cfg = _cfg(3.0, 1.0)
    basis = field_mode_basis(cfg, 60.0, 16.0)
    for t in (0.0, 8.0, 16.0):
        xs = np.linspace(-20.0, 55.0, 1501)
        sl = field_slice(t, xs, cfg, basis=basis)
        dens = charge_density(sl)
        peaks = find_peaks(dens, min_prominence=0.05)
        xbar = field_trajectory(t, cfg.motion).x
        assert len(peaks) == 1
        assert abs(peaks[0][0] - xbar) < 0.6
        assert abs(expectation_x(xs, dens.rho) - xbar) < 0.25


def test_narrow_packet_splits_and_spills_backward():
    cfg = _cfg(0.3, 1.0)
    basis = field_mode_basis(cfg, 60.0, 16.0)
    xs = np.linspace(-30.0, 55.0, 3001)
    dens = charge_density(field_slice(16.0, xs, cfg, basis=basis))
    assert len(find_peaks(dens, min_prominence=0.05)) >= 2
    # momentum spectrum keeps a sizable tail below -mc
    psi_p, _ = basis.modes(16.0)
    spec = np.abs(psi_p) ** 2
    mask = basis.p < -1.0
    tail = np.trapezoid(spec[mask], basis.p[mask]) / np.trapezoid(spec, basis.p)
    assert tail > 0.05


def test_charge_conserved_including_backward_times():
    cfg = _cfg(0.3, 10.0)
    basis = field_mode_basis(cfg, 80.0, 40.0)
    xs = np.linspace(-40.0, 80.0, 3001)
    charges = [charge_density(field_slice(t, xs, cfg, basis=basis)).total_charge()
               for t in (-12.0, 0.0, 20.0, 40.0)]
    assert max(abs(q / charges[0] - 1.0) for q in charges) < 1e-3


def test_psi_field_scalar_api():
    cfg = _cfg(3.0, 1.0)
    psi, dpsi = psi_field(2.0, 11.0, cfg)
    assert np.ndim(psi) == 0
    # density positive near the packet center for the wide packet
    assert np.real(1j * np.conj(psi) * dpsi) > 0.0


def test_modes_match_the_pcf_d_dz_route():
    # modes take D' from the ladder relation on the D_nu already computed;
    # pcf_d_dz evaluates D_nu again, with the same arithmetic
    cfg = _cfg(0.3, 1.0)
    basis = field_mode_basis(cfg, 30.0, 10.0)
    c = basis.coeffs
    for t in (-4.0, 0.0, 7.5):
        s = basis.p + F * t
        zp, zm = basis.ray_plus * s, basis.ray_minus * s
        fp, fm = pcf_d(basis.nu_plus, zp), pcf_d(basis.nu_minus, zm)
        dfp = pcf_d_dz(basis.nu_plus, zp) * basis.ray_plus * F
        dfm = pcf_d_dz(basis.nu_minus, zm) * basis.ray_minus * F
        psi_p, dpsi_p = basis.modes(t)
        assert np.array_equal(psi_p, c.c_plus * fp + c.c_minus * fm)
        assert np.array_equal(dpsi_p, c.c_plus * dfp + c.c_minus * dfm)


def test_psi_only_evaluation_is_the_same_bits():
    cfg = _cfg(0.3, 10.0)
    basis = field_mode_basis(cfg, 40.0, 20.0)
    for t in (0.0, 3.25, 17.5):
        assert np.array_equal(basis.modes(t, derivatives=False), basis.modes(t)[0])
        x = field_trajectory(t, cfg.motion).x
        for xs in (np.array([x]), np.array([x - 0.7])):
            assert np.array_equal(basis.eval_psi(t, xs), basis.eval_psi_dpsi(t, xs)[0])


def test_field_phase_trace_evaluates_two_pcf_per_time(monkeypatch):
    # the phase trace keeps psi only, so each evaluation takes f+ and f-
    # and not the D_{nu-1} of their time derivatives
    calls = []
    pcf = field_packets.pcf_d
    monkeypatch.setattr(field_packets, "pcf_d",
                        lambda nu, z: calls.append(nu) or pcf(nu, z))
    per_eval = []
    trace = scenarios.phase_trace

    def counting_trace(evaluator, *args, **kwargs):
        def ev(t, x):
            before = len(calls)
            val = evaluator(t, x)
            per_eval.append(len(calls) - before)
            return val
        return trace(ev, *args, **kwargs)

    monkeypatch.setattr(scenarios, "phase_trace", counting_trace)
    scn = scenarios.Scenario(name="ph", family="uniform-field",
                             cases=({"sigma0": 3.0, "gamma0": 1.0, "force": F},),
                             t_list=(0.0,), outputs=("phase",), phase_t_max=2.0)
    scenarios._gen_phase(scn, scn.cases[0], np.linspace(-30.0, 30.0, 101), [])
    assert len(per_eval) >= 9 and set(per_eval) == {2}
