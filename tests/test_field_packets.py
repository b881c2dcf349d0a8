import warnings

import numpy as np
import pytest

from relwave import field_packets, packets, quadrature, scenarios, specfun
from relwave.analysis import charge_density, expectation_x, find_peaks
from relwave.field_packets import (FieldPacketConfig, _order_and_ray, field_mode_basis,
                                   mode_coeffs, mode_pair)
from relwave.kinematics import FieldMotion
from relwave.packets import packet_for
from relwave.specfun import SpecFunAccuracyError, pcf_d, pcf_d_dz

F = 0.1


def _cfg(sigma0, gamma0):
    return FieldPacketConfig(sigma0, FieldMotion.from_gamma(gamma0, force=F))


def _packet(sigma0, gamma0, x_extent, t_max):
    return packet_for({"sigma0": sigma0, "gamma0": gamma0, "force": F}, "uniform-field",
                      x_extent, t_max)


def _ray_weight(cfg, p):
    # g(p) = |f+(p)|^2 + |f-(p)|^2 along the projection ray
    fp, fm = mode_pair(cfg, np.asarray(p, dtype=float))
    return np.abs(fp) ** 2 + np.abs(fm) ** 2


def test_config_validation():
    # gamma0, the force and the x0 default are the motion's (test_kinematics)
    for sigma0 in (0.0, np.nan):
        with pytest.raises(ValueError, match="sigma0"):
            FieldPacketConfig(sigma0=sigma0, motion=FieldMotion(force=0.1))


def test_projection_factors_are_conjugate_pairs():
    # the weight attached to c+ is the conjugate of the mode it multiplies
    p = np.linspace(-3.0, 3.0, 7)
    lhs = pcf_d(-0.5 + 5.0j, (1.0 - 1.0j) / np.sqrt(F) * p)
    rhs = np.conj(pcf_d(-0.5 - 5.0j, (1.0 + 1.0j) / np.sqrt(F) * p))
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


def test_gaussian_factor_is_one_at_p0():
    cfg = FieldPacketConfig(sigma0=3.0, motion=FieldMotion(force=F, p0=0.7, x0=4.0))
    c = mode_coeffs(np.array([0.7]), cfg)
    g = _ray_weight(cfg, [0.7])
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
    m = cfg.motion
    gauss = np.exp(-0.5 * cfg.sigma0**2 * (p - m.p0) ** 2 - 1j * p * m.x0)
    ratio = recon / gauss
    assert np.max(np.abs(ratio / ratio[len(p) // 2] - 1.0)) < 1e-6


def test_ray_weight_is_not_constant():
    # the projection really needs the 1/g(p) factor: g falls off with |p|
    cfg = _cfg(3.0, 1.0)
    g = _ray_weight(cfg, [0.0, 3.0])
    assert g[0] / g[1] > 2.0


def test_mode_ode_residual():
    # the packet's modes at the grid nodes nearest p = -1.3, 0.4, 2.0
    cfg = _cfg(0.3, 1.0)
    basis = field_mode_basis(cfg, 30.0, 10.0)
    idx = np.searchsorted(basis.p, [-1.3, 0.4, 2.0])
    p = basis.p[idx]
    h = 1e-4
    for t in (-12.0, 0.0, 17.0, 40.0):
        d_plus = basis.modes(t + h, True)[1][idx]
        d_minus = basis.modes(t - h, True)[1][idx]
        psi_t = basis.modes(t, False)[idx]
        second = (d_plus - d_minus) / (2 * h)
        omega_sq = (p + F * t) ** 2 + 1.0
        resid = np.abs(second + omega_sq * psi_t)
        assert np.all(resid < 1e-6 * np.abs(psi_t) * (omega_sq + 1.0))


def test_adiabatic_flat_modulus_at_weak_force():
    # the p = 0 mode, c+ f+(F t) + c- f-(F t), as the basis combines it
    cfg = FieldPacketConfig(sigma0=3.0, motion=FieldMotion(force=1e-3, p0=0.0))
    c = mode_coeffs(np.array([0.0]), cfg)
    vals = []
    for t in (0.0, 0.5, 1.0):
        fp, fm = mode_pair(cfg, c.p + cfg.motion.force * t)
        vals.append(abs((c.c_plus * fp + c.c_minus * fm)[0]))
    assert max(vals) / min(vals) - 1.0 < 0.01


def test_initial_state_fidelity_and_norm():
    cfg = _cfg(0.3, 10.0)
    xs = np.linspace(-30.0, 50.0, 4001)
    sl = _packet(0.3, 10.0, 51.0, 0.0).slice(0.0, xs)
    gauss = (cfg.sigma0 * np.sqrt(np.pi)) ** -0.5 \
        * np.exp(-0.5 * ((xs - cfg.motion.x0) / cfg.sigma0) ** 2
                 + 1j * cfg.motion.p0 * (xs - cfg.motion.x0))
    assert np.max(np.abs(sl.psi - gauss)) < 1e-5
    assert abs(sl.norm() - 1.0) < 1e-6


def test_wide_packet_rides_the_classical_trajectory():
    # the charge centroid lags the point-particle hyperbola by an
    # O(sigma0^2 alpha) offset that reaches ~0.21 at t = 16
    cfg = _cfg(3.0, 1.0)
    pk = _packet(3.0, 1.0, 60.0, 16.0)
    for t in (0.0, 8.0, 16.0):
        xs = np.linspace(-20.0, 55.0, 1501)
        sl = pk.slice(t, xs)
        dens = charge_density(sl)
        peaks = find_peaks(dens, min_prominence=0.05)
        xbar = cfg.motion.x(t)
        assert len(peaks) == 1
        assert abs(peaks[0][0] - xbar) < 0.6
        assert abs(expectation_x(xs, dens.rho) - xbar) < 0.25


def test_narrow_packet_splits_and_spills_backward():
    cfg = _cfg(0.3, 1.0)
    basis = field_mode_basis(cfg, 60.0, 16.0)
    xs = np.linspace(-30.0, 55.0, 3001)
    dens = charge_density(_packet(0.3, 1.0, 60.0, 16.0).slice(16.0, xs))
    assert len(find_peaks(dens, min_prominence=0.05)) >= 2
    # momentum spectrum keeps a sizable tail below -mc
    spec = np.abs(basis.modes(16.0, False)) ** 2
    mask = basis.p < -1.0
    tail = np.trapezoid(spec[mask], basis.p[mask]) / np.trapezoid(spec, basis.p)
    assert tail > 0.05


def test_charge_conserved_including_backward_times():
    pk = _packet(0.3, 10.0, 80.0, 40.0)
    xs = np.linspace(-40.0, 80.0, 3001)
    charges = [charge_density(pk.slice(t, xs)).total_charge()
               for t in (-12.0, 0.0, 20.0, 40.0)]
    assert max(abs(q / charges[0] - 1.0) for q in charges) < 1e-3


def test_psi_field_scalar_api():
    pk = _packet(3.0, 1.0, 20.0, 10.0)
    psi, dpsi = pk.psi_dpsi(2.0, np.array([11.0]))
    assert psi.shape == dpsi.shape == (1,)
    # density positive near the packet center for the wide packet
    assert np.real(1j * np.conj(psi[0]) * dpsi[0]) > 0.0
    # a point gives the bits of that point on a non-uniform grid (the dense
    # route), and psi alone the bits of psi evaluated with d/dt psi
    psis, dpsis = pk.psi_dpsi(2.0, np.array([11.0, 11.5, 13.0]))
    assert psis[0] == psi[0] and dpsis[0] == dpsi[0]
    assert pk.psi_at(np.array([2.0]), np.array([11.0]))[0] == psi[0]


def test_modes_match_the_pcf_d_dz_route():
    # modes take D' from the ladder relation on the D_nu already computed;
    # pcf_d_dz evaluates D_nu again, with the same arithmetic.  f+ at s >= 0,
    # f- at s < 0, and both near s = 0 are direct D_nu values with its bits;
    # the other halves come from the connection formula, to a tolerance
    cfg = _cfg(0.3, 1.0)
    basis = field_mode_basis(cfg, 30.0, 10.0)
    c = mode_coeffs(basis.p, cfg)
    nu, ray = _order_and_ray(cfg)
    for t in (-4.0, 0.0, 7.5):
        s = basis.p + F * t
        zp, zm = ray * s, ray * -s
        ref = (pcf_d(nu, zp), np.conj(pcf_d(nu, zm)),
               pcf_d_dz(nu, zp) * ray * F, -np.conj(pcf_d_dz(nu, zm) * ray * F))
        got = mode_pair(cfg, s, derivatives=True)
        near = np.abs(ray * s) <= specfun._R_SERIES
        assert 0 < np.count_nonzero(near) < len(s) // 4
        direct = ((s >= 0.0) | near, (s < 0.0) | near) * 2
        for g, r, d, tol in zip(got, ref, direct, (1e-13, 1e-13, 1e-11, 1e-11)):
            assert np.array_equal(g[d], r[d])
            assert np.max(np.abs(g - r)) < tol * np.max(np.abs(r))
        psi_p, dpsi_p = basis.modes(t, True)
        assert np.array_equal(psi_p, c.c_plus * got[0] + c.c_minus * got[1])
        assert np.array_equal(dpsi_p, c.c_plus * got[2] + c.c_minus * got[3])


def test_psi_only_evaluation_is_the_same_bits():
    # psi at (t, x) pairs, f+ and f- only, has the bits of psi evaluated with
    # d/dt psi at each point, whichever pairs are evaluated with it
    cfg = _cfg(0.3, 10.0)
    basis = field_mode_basis(cfg, 40.0, 20.0)
    pk = _packet(0.3, 10.0, 40.0, 20.0)
    ts = np.array([0.0, 3.25, 17.5, 3.25])
    xs = np.array([cfg.motion.x(t) for t in ts])
    xs[3] -= 0.7
    together = pk.psi_at(ts, xs)
    for k, (t, x) in enumerate(zip(ts, xs)):
        assert np.array_equal(basis.modes(t, False), basis.modes(t, True)[0])
        assert together[k] == pk.psi_dpsi(t, np.array([x]))[0][0]
        assert together[k] == pk.psi_at(ts[k:k + 1], xs[k:k + 1])[0]


def _two_order_route(cfg, s):
    # f+ and f- as two D_nu families: orders nu and conj(nu) on the rays
    # r and -conj(r), d/dt from the ladder relation on each
    nu, ray = _order_and_ray(cfg)
    out = []
    for order, r in ((nu, ray), (nu.conjugate(), -ray.conjugate())):
        z = r * s
        f = pcf_d(order, z)
        out.append((f, (order * pcf_d(order - 1.0, z) - 0.5 * z * f) * r * cfg.motion.force))
    return out[0][0], out[1][0], out[0][1], out[1][1]


@pytest.mark.parametrize("force", [0.1, 1.0, 2.0, 0.05, 0.02])
def test_mode_pair_mirror_matches_the_two_order_route(force):
    # one D_nu per |s| and the connection formula against f+ and f- as two
    # D_nu families, to 1e-13 of max|f| and 1e-11 of max|d/dt f| (the largest
    # gap measured is 1.4e-12, at F = 0.05): on one call's points and on
    # more than _PAIR_BLOCK in two rows, which split into several calls
    # (kept to |s| >= 4, past the band integral's points, which cost up to
    # 12 ms each).  The modes alone have the bits of the modes with d/dt
    cfg = FieldPacketConfig(sigma0=1.0, motion=FieldMotion(force=force))
    s = np.concatenate([np.linspace(-60.0, 60.0, 2001), [0.0, 1e-9, -1e-9]])
    wide = np.outer([1.0, -1.0], np.linspace(4.0, 60.0, field_packets._PAIR_BLOCK // 2 + 7))
    for points in (s, wide):
        ref = _two_order_route(cfg, points)
        got = mode_pair(cfg, points, derivatives=True)
        for g, r, tol in zip(got, ref, (1e-13, 1e-13, 1e-11, 1e-11)):
            assert g.shape == r.shape
            assert np.max(np.abs(g - r)) < tol * np.max(np.abs(r))
        for g, r in zip(mode_pair(cfg, points), got[:2]):
            assert np.array_equal(g, r)


@pytest.mark.parametrize("force", [-0.3])
def test_negative_force_modes_conjugate_the_two_order_route(force):
    # F < 0: f+-(s; F) = conj f+-(s; |F|) and d/dt f+-(s; F) =
    # -conj(d/dt f+-(s; |F|)), against the two-order route at |F| to the
    # bounds of the F > 0 test, and with the bits of the |F| modes
    cfg = FieldPacketConfig(sigma0=1.0, motion=FieldMotion(force=force))
    mirror = FieldPacketConfig(sigma0=1.0, motion=FieldMotion(force=-force))
    s = np.concatenate([np.linspace(-60.0, 60.0, 2001), [0.0, 1e-9, -1e-9]])
    got = mode_pair(cfg, s, derivatives=True)
    signs = (1.0, 1.0, -1.0, -1.0)
    for g, r, sign, tol in zip(got, _two_order_route(mirror, s), signs,
                               (1e-13, 1e-13, 1e-11, 1e-11)):
        assert np.max(np.abs(g - sign * np.conj(r))) < tol * np.max(np.abs(r))
    for g, r, sign in zip(got, mode_pair(mirror, s, derivatives=True), signs):
        assert np.array_equal(g, sign * np.conj(r))


def _assert_matches_mpmath(force):
    # f+- and d/dt f+- = F d/ds f+- from mpmath's pcfd of the order and ray
    # of |F| (and their conjugates for f-), conjugated for F < 0, at points
    # on both sides of s = 0, near it and in all three D_nu regimes
    import mpmath

    cfg = FieldPacketConfig(sigma0=1.0, motion=FieldMotion(force=force))
    nu, ray = _order_and_ray(cfg)
    s = np.array([-40.0, -17.3, -6.1, -2.2, -0.9, -0.3, -0.01, 0.0, 0.2, 0.7,
                  1.9, 5.3, 12.0, 33.0])
    ref = []
    with mpmath.workdps(30):
        for order, r in ((nu, ray), (nu.conjugate(), -ray.conjugate())):
            f, df = [], []
            for z in r * s:
                d = mpmath.pcfd(order, z)
                f.append(complex(d))
                df.append(complex((order * mpmath.pcfd(order - 1, z) - z / 2 * d) * r))
            ref.append((np.array(f), np.array(df)))
    if force < 0:
        ref = [(np.conj(f), np.conj(df)) for f, df in ref]
    ref = (ref[0][0], ref[1][0], ref[0][1] * force, ref[1][1] * force)
    for g, r, tol in zip(mode_pair(cfg, s, derivatives=True), ref, (1e-12, 1e-12, 5e-12, 5e-12)):
        assert np.max(np.abs(g - r)) < tol * np.max(np.abs(r))


@pytest.mark.parametrize("force", [0.1])
def test_mode_pair_matches_mpmath(force):
    # measured: 1.5e-13 of max|f| and 8e-13 of max|d/dt f| at F = 0.1
    _assert_matches_mpmath(force)


@pytest.mark.parametrize("force", [-0.3])
def test_negative_force_mode_pair_matches_mpmath(force):
    # the F < 0 modes are the conjugated modes of |F|, so their time
    # derivatives F d/ds f+- are the conjugates of d/ds f+-(|F|) times F
    _assert_matches_mpmath(force)


@pytest.mark.parametrize("force", [5e-4])
def test_mode_pair_guard_raises_before_any_d_nu(monkeypatch, force):
    # at F = 5e-4 the fold's factors leave double range: a typed error, with
    # no numpy warning and no D_nu evaluated first
    calls = []
    _count_pcf(monkeypatch, calls)
    cfg = FieldPacketConfig(sigma0=1.0, motion=FieldMotion(force=force))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for s in (np.linspace(-5.0, 5.0, 101), np.array([3.0]), np.array([-3.0])):
            with pytest.raises(SpecFunAccuracyError):
                mode_pair(cfg, s, derivatives=True)
    assert calls == []


@pytest.mark.parametrize("force", [-0.05, -0.07])
def test_weak_negative_forces_need_no_adverse_fold(monkeypatch, force):
    # the modes of F < 0 evaluate D_nu of the order of |F| only, whose fold
    # is on the favourable side: no typed error where |Im nu| passes 6.8 on
    # the adverse side, no numpy warning, and the |F| modes conjugated
    calls = []
    _count_pcf(monkeypatch, calls)
    cfg = FieldPacketConfig(sigma0=1.0, motion=FieldMotion(force=force))
    mirror = FieldPacketConfig(sigma0=1.0, motion=FieldMotion(force=-force))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for s in (np.linspace(-5.0, 5.0, 101), np.array([3.0]), np.array([-3.0])):
            got = mode_pair(cfg, s, derivatives=True)
            ref = mode_pair(mirror, s, derivatives=True)
            for g, r, sign in zip(got, ref, (1.0, 1.0, -1.0, -1.0)):
                assert np.all(np.isfinite(g)) and np.array_equal(g, sign * np.conj(r))
    nu = _order_and_ray(mirror)[0]
    assert {order for order, _ in calls} == {nu, nu - 1.0} and nu.imag < 0


def _count_pcf(monkeypatch, calls):
    pcf = field_packets.pcf_d
    monkeypatch.setattr(field_packets, "pcf_d",
                        lambda nu, z: calls.append((nu, np.size(z))) or pcf(nu, z))


def _pcf_points(cfg, s):
    # D_nu points of mode_pair at s: one per |s|, and a second (at -r|s|)
    # for each s near 0, where the Maclaurin series serves both signs
    ray = _order_and_ray(cfg)[1]
    return np.size(s) + np.count_nonzero(np.abs(ray * np.abs(s)) <= specfun._R_SERIES)


def test_field_phase_trace_evaluates_one_order_per_time(monkeypatch):
    # the phase trace keeps psi only: each evaluated time takes D_nu once on
    # each of the Np nodes' |s| (f+ and f-; twice for the few near s = 0),
    # and not the D_{nu-1} of their time derivatives
    times = []
    trace = packets.phase_trace

    def counting_trace(evaluator, *args, **kwargs):
        def ev(ts, xs):
            times.extend(ts)
            return evaluator(ts, xs)
        return trace(ev, *args, **kwargs)

    monkeypatch.setattr(packets, "phase_trace", counting_trace)
    scn = scenarios.Scenario(name="ph", family="uniform-field",
                             cases=({"sigma0": 3.0, "gamma0": 1.0, "force": F},),
                             t_list=(0.0,), outputs=("phase",), phase_t_max=2.0)
    pk, = scn.packets
    basis = field_mode_basis(_cfg(3.0, 1.0), 31.0, 2.0)
    pk.psi_at(np.zeros(1), np.zeros(1))  # builds the packet's own basis, uncounted
    calls = []
    _count_pcf(monkeypatch, calls)
    scenarios._case_outputs(scn, scn.cases[0], pk, np.linspace(-30.0, 30.0, 101))
    assert len(times) >= 9
    assert {nu for nu, _ in calls} == {_order_and_ray(_cfg(3.0, 1.0))[0]}
    points = sum(n for _, n in calls)
    assert points == sum(_pcf_points(_cfg(3.0, 1.0), basis.p + F * t) for t in times)
    assert points < 1.1 * len(basis.p) * len(times)


@pytest.mark.parametrize("block", [field_packets._PAIR_BLOCK, 1000])
def test_trace_pcf_calls_stay_within_the_block_bound(monkeypatch, block):
    # a block of times is one or two pcf_d calls, each on at most half a
    # block of points (and the mirror images of those near s = 0); with
    # fewer points per block than nodes (1000 < Np) a block is one time, its
    # nodes split over several calls, and the phases keep their bits
    pk = _packet(0.3, 10.0, 41.0, 8.0)
    ts = np.arange(0.0, 8.125, 0.25)
    ref = pk.trace_phase(ts)
    p = field_mode_basis(_cfg(0.3, 10.0), 41.0, 8.0).p
    calls = []
    monkeypatch.setattr(quadrature, "_PAIR_BLOCK", block)
    monkeypatch.setattr(field_packets, "_PAIR_BLOCK", block)
    _count_pcf(monkeypatch, calls)
    trace = pk.trace_phase(ts)
    n_p = len(p)
    sizes = [n for _, n in calls]
    assert max(sizes) <= block
    assert sum(sizes) == sum(_pcf_points(_cfg(0.3, 10.0), p + F * t) for t in ts)
    if block > 2 * n_p:
        assert max(sizes) > n_p  # several times per call
    assert np.array_equal(trace.phi, ref.phi)


def test_spectrum_reuses_the_modes_of_the_density(monkeypatch, tmp_path):
    # density and peak-normalized spectrum at three times: the basis build
    # (f+ and f-, one D_nu call) and 2 D_nu calls per time for the slices
    # (orders nu and nu - 1), each on the nodes' |s| once (and the mirror
    # images of those near s = 0); the spectra and their t = 0 peak read
    # the slices' psi_p (11 calls when they evaluate again)
    scn = scenarios.Scenario(name="fd", family="uniform-field",
                             cases=({"sigma0": 3.0, "gamma0": 1.0, "force": F},),
                             t_list=(-4.0, 0.0, 4.0), x_min=-20.0, x_max=40.0,
                             x_count=301, outputs=("density", "spectrum"),
                             normalization="peak-normalized", p_min=-5.0, p_max=5.0,
                             p_count=101)
    calls = []
    _count_pcf(monkeypatch, calls)
    scenarios.run(scn, tmp_path)
    assert len(calls) == 7
    points = sum(n for _, n in calls)
    cfg = _cfg(3.0, 1.0)
    p = field_mode_basis(cfg, 41.0, 4.0).p
    assert points == _pcf_points(cfg, p) + 2 * sum(
        _pcf_points(cfg, p + F * t) for t in scn.t_list)


def test_classical_position_tracks_the_density_mean():
    # the worldline starts at the case's x0 (default: the vertex 1/F)
    xs = np.linspace(-40.0, 60.0, 2001)
    for x0 in (0.0, 5.0, None):
        case = {"sigma0": 3.0, "gamma0": 1.0, "force": F, "x0": x0}
        pk = packet_for(case, "uniform-field", 61.0, 4.0)
        for t in (0.0, 4.0):
            mean = expectation_x(xs, charge_density(pk.slice(t, xs)).rho)
            assert abs(pk.motion.x(t) - mean) < 0.25


@pytest.mark.parametrize("force", [-0.3, -0.1])
def test_negative_force_packet_conserves_its_charge(force):
    # with modes of the wrong frequency the F < 0 packet had the Gaussian's
    # norm but a charge of -3.1e-3 (F = -0.3); now its charge is the F > 0
    # packet's and stays constant, and the density mean follows the worldline
    xs = np.linspace(-40.0, 40.0, 3001)
    pk, mirror = (packet_for({"sigma0": 3.0, "gamma0": 1.0, "force": f, "x0": 0.0},
                             "uniform-field", 41.0, 6.0) for f in (force, -force))
    charges = []
    for t in (0.0, 3.0, 6.0):
        dens = charge_density(pk.slice(t, xs))
        charges.append(dens.total_charge())
        assert abs(charges[-1] - charge_density(mirror.slice(t, xs)).total_charge()) < 1e-12
        assert abs(expectation_x(xs, dens.rho) - pk.motion.x(t)) < 0.25
    assert charges[0] > 1.0 and max(charges) - min(charges) < 1e-6 * charges[0]
    assert pk.motion.x(6.0) < -0.1  # the force pulls it to negative x


@pytest.mark.parametrize("force", [0.1, -0.3, 0.04, 0.02, 0.01])
def test_mode_pair_solves_its_ode(force):
    # an oracle without D_nu: each mode solves y'' + ((p + F t)^2 + 1) y = 0
    # in t.  From mode_pair at s = p, DOP853 (rtol 1e-13) reaches mode_pair
    # at s = p + F T to 1e-11 of each value (measured: 3.3e-12 at worst);
    # at F = 0.02 and 0.01 it was 1.2e-3 and 2 off when the mode ray's
    # Poincare points past |z| = 8.5 took the band integral
    from scipy.integrate import solve_ivp

    p = np.array([-1.3, 0.4, 2.0])
    cfg = FieldPacketConfig(sigma0=1.0, motion=FieldMotion(force=force))

    def rhs(t, y):  # y = (f+, f-, d/dt f+, d/dt f-) at the three p
        return np.concatenate([y[6:], -np.tile((p + force * t) ** 2 + 1.0, 2) * y[:6]])

    start = np.concatenate(mode_pair(cfg, p, derivatives=True))
    for T in (40.0, -12.0):
        sol = solve_ivp(rhs, (0.0, T), start, method="DOP853", rtol=1e-13, atol=0.0)
        ref = np.concatenate(mode_pair(cfg, p + force * T, derivatives=True))
        assert np.max(np.abs(sol.y[:, -1] - ref) / np.abs(ref)) < 1e-11, T


def test_weak_field_packet_conserves_its_charge():
    # F = 0.01, the weakest force whose modes the march serves: the charge
    # on the grid went from 1.02 at t = 0 to 2.4e16 at t = 2, with exit code 0
    xs = np.linspace(-40.0, 40.0, 3001)
    pk = packet_for({"sigma0": 3.0, "gamma0": 1.0, "force": 0.01, "x0": 0.0},
                    "uniform-field", 41.0, 6.0)
    charges = [charge_density(pk.slice(t, xs)).total_charge() for t in (0.0, 2.0, 6.0)]
    assert max(charges) - min(charges) < 1e-12 * charges[0]


@pytest.mark.parametrize("force", [-0.3, -1.0])
def test_negative_force_mirror_identity(force):
    # psi(x, t; -F, p0, x0) = psi(-x, t; F, -p0, -x0), and so for d/dt psi,
    # to 2e-13 of their maxima (measured: 9.7e-14), backward times included
    def basis(f, p0, x0):
        return field_mode_basis(FieldPacketConfig(1.0, FieldMotion(force=f, p0=p0, x0=x0)),
                                21.0, 5.0)

    pk, mirror = basis(force, 0.8, 1.5), basis(-force, -0.8, -1.5)
    xs = np.linspace(-20.0, 20.0, 801)
    for t in (-3.0, 0.0, 2.0, 5.0):
        for got, ref in zip(pk.psi_dpsi(t, xs), mirror.psi_dpsi(t, -xs)):
            assert np.max(np.abs(got - ref)) < 2e-13 * np.max(np.abs(got))
