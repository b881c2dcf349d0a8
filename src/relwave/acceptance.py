"""Acceptance checks: quantitative reproduction targets, one record each.

Each criterion is a function returning (passed, detail).  ``run_all`` executes
them in order, printing one PASS/FAIL line per criterion.  Each criterion
runs its own sweeps: no two ask for the same (family, case, times, grids).
A sweep is a list of ``Packet.observe`` records, as in the scenario runner,
and makes only the fits its criterion reads.

Criterion 10a keeps its literal parameters and is a *known failure*:
along the worldline the offset phi - S/hbar equals -arctan(t/vartheta)/2 up
to O(1/|z|) corrections, so at vartheta = 100 it cannot be within 0.05 of
-pi/4 at t = 50 (that requires t >> vartheta).  The companion check 10a'
verifies the same limit at t large enough to be in the asymptotic regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import expectation_x, find_peaks, momentum_spectrum
from .field_packets import FieldPacketConfig, field_mode_basis, mode_pair
from .free_packets import ClosedPacketConfig, closed_spectral, gauss_spectrum
from .kinematics import FieldMotion, FreeMotion
from .packets import packet_for
from .specfun import bessel_k1, pcf_d, pcf_d_dz

V0_QUARTER = 0.25


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    name: str
    passed: bool
    detail: str
    known_failure: bool = False


# ---------------------------------------------------------------------------
# shared artifacts
# ---------------------------------------------------------------------------

def _closed(vartheta):
    return packet_for({"vartheta": vartheta, "v0": V0_QUARTER}, "closed-free", 0.0, 0.0)


def _field_cfg(sigma0, gamma0) -> FieldPacketConfig:
    return FieldPacketConfig(sigma0, FieldMotion.from_gamma(gamma0, force=0.1))


def _sweep(family, case, ts, grids):
    """The observations of one packet at each time of ``ts``; ``grids`` holds
    the (lo, hi, n) x-grid of each time.  The packet is built once, for the
    widest grid and the largest |t|."""
    extent = max(max(abs(lo), abs(hi)) for lo, hi, _ in grids) + 1.0
    pk = packet_for(case, family, extent, float(np.max(np.abs(ts))))
    return [pk.observe(t, np.linspace(lo, hi, n)) for t, (lo, hi, n) in zip(ts, grids)]


def _closed_sweep(vartheta, ts, lo, hi, n):
    return _sweep("closed-free", {"vartheta": vartheta, "v0": V0_QUARTER}, ts,
                  ((lo, hi, n),) * len(ts))


def _gauss_sweep(sigma0, gamma0, ts):
    x = FreeMotion.from_gamma(gamma0).x
    return _sweep("gauss-free", {"sigma0": sigma0, "gamma0": gamma0}, ts,
                  tuple((-(30.0 + x(t)), 30.0 + x(t), 4001) for t in ts))


def _field_sweep(sigma0, gamma0, ts):
    return _sweep("uniform-field", {"sigma0": sigma0, "gamma0": gamma0, "force": 0.1},
                  ts, ((-40.0, 70.0, 3001),) * len(ts))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def crit_1_closed_form_oracle():
    """Closed form vs direct quadrature of the mode superposition."""
    worst = 0.0
    xs = np.linspace(-30.0, 30.0, 241)
    for vt in (0.1, 1.0, 10.0, 100.0):
        pk = _closed(vt)
        cfg = ClosedPacketConfig(vartheta=vt, motion=FreeMotion(v0=V0_QUARTER))
        spectral = closed_spectral(cfg, 40.0, 20.0)
        for t in (0.0, 10.0, 20.0):
            ref, _ = spectral.psi_dpsi(t, xs)
            dev = float(np.max(np.abs(pk.psi_dpsi(t, xs)[0] - ref)) / np.max(np.abs(ref)))
            worst = max(worst, dev)
    return worst < 1e-6, f"max relative deviation {worst:.2e} (tol 1e-6)"


def crit_2_initial_widths():
    """Best-fit 2*sigma of rho at t=0 vs 18.94, 5.654, 1.048, 0.092."""
    targets = {100.0: (18.94, 0.01), 10.0: (5.654, 0.01),
               1.0: (1.048, 0.01), 0.1: (0.092, 0.05)}
    grids = {100.0: (-40.0, 40.0, 2001), 10.0: (-20.0, 20.0, 2001),
             1.0: (-8.0, 8.0, 3001), 0.1: (-4.0, 4.0, 6001)}
    details = []
    ok = True
    for vt, (target, tol) in targets.items():
        fit = _closed_sweep(vt, (0.0,), *grids[vt])[0].fit_rho
        rel = abs(2.0 * fit.sigma_star - target) / target
        ok &= rel < tol
        details.append(f"ctheta={vt:g}: 2sig={2*fit.sigma_star:.4f} "
                       f"(target {target}, err {rel*100:.2f}%)")
    return ok, "; ".join(details)


def crit_3_mean_position():
    """<x> = v0 t for the widest packet at t = 20."""
    xs = np.linspace(-45.0, 55.0, 3001)
    mean = expectation_x(xs, np.abs(_closed(100.0).psi_dpsi(20.0, xs)[0]) ** 2)
    err = abs(mean - 5.0)
    return err < 1e-3, f"<x>(20) = {mean:.6f}, |err| = {err:.2e} (tol 1e-3)"


def crit_4_peak_splitting():
    """Sub-Compton packet splits into two lightcone-hugging peaks."""
    ok = True
    details = []
    for r in _closed_sweep(0.1, (10.0, 20.0), -30.0, 30.0, 6001):
        t = r.slice.t
        peaks = find_peaks(r.density, min_prominence=0.05)
        offs = [abs(abs(x) - t) for x, _ in peaks]
        ok &= len(peaks) == 2 and all(o <= 2.0 for o in offs)
        details.append(f"t={t:g}: {len(peaks)} peaks at "
                       + ",".join(f"{x:.2f}" for x, _ in peaks))
    return ok, "; ".join(details)


def crit_5_negative_density():
    """Sub-Compton Gaussian has negative rho; wide Gaussian does not."""
    narrow, wide = (_gauss_sweep(sigma0, 1.0, (0.0,))[0] for sigma0 in (0.3, 3.0))
    min_narrow, min_wide = (float(np.min(r.density.rho / r.density.total_charge()))
                            for r in (narrow, wide))
    ok = min_narrow < 0.0 and min_wide >= -1e-6 and wide.fit_rho.score > 0.99
    return ok, (f"min rho (0.3,1) = {min_narrow:.3e} < 0; "
                f"min rho (3,1) = {min_wide:.3e} >= -1e-6; "
                f"G_rho(0) (3,1) = {wide.fit_rho.score:.5f} > 0.99")


def crit_6_suppression():
    """Momentum-space suppression of the backward mode at p = -mc."""
    out = []
    ok = True
    for gamma0, bound, comparator in ((10.0, np.exp(-9.0), "<"), (1.0, np.exp(-1.0), ">")):
        pk = packet_for({"sigma0": 0.3, "gamma0": gamma0}, "gauss-free", 16.0, 0.0)
        obs = pk.observe(0.0, np.linspace(-15.0, 15.0, 8001))
        spec = momentum_spectrum(obs.slice)
        at = lambda p: float(np.interp(p, spec.p, spec.rho_tilde))
        ratio = at(-1.0) / at(obs.p_bar)
        good = ratio < bound if comparator == "<" else ratio > bound
        ok &= good
        out.append(f"gamma0={gamma0:g}: ratio={ratio:.3e} {comparator} {bound:.3e}")
    return ok, "; ".join(out)


def crit_7_field_family():
    """Charge conservation, initial fidelity, and mode reconstruction."""
    ts = (-12.0, -8.0, -4.0, 0.0, 4.0, 8.0, 16.0, 24.0, 32.0, 40.0)
    details = []
    ok = True
    for sigma0, gamma0 in ((3.0, 1.0), (0.3, 1.0), (0.3, 10.0)):
        rec = _field_sweep(sigma0, gamma0, ts)
        charges = np.array([r.density.total_charge() for r in rec])
        drift = float(np.max(np.abs(charges / charges[0] - 1.0)))
        cfg = _field_cfg(sigma0, gamma0)
        m = cfg.motion
        sl = rec[ts.index(0.0)].slice
        xs = sl.xs
        gauss = np.exp(-0.5 * ((xs - m.x0) / cfg.sigma0) ** 2) \
            / np.sqrt(cfg.sigma0 * np.sqrt(np.pi)) * np.exp(1j * m.p0 * (xs - m.x0))
        fid = float(np.max(np.abs(sl.psi - gauss)))
        basis = field_mode_basis(cfg, 71.0, 40.0)
        recon = basis.modes(0.0, False)
        spectrum = gauss_spectrum(basis.p, cfg.sigma0, m.p0, m.x0)
        mask = np.abs(basis.p - m.p0) < 3.0 / cfg.sigma0
        ratio = recon[mask] / spectrum[mask]
        const_resid = float(np.max(np.abs(ratio / np.median(ratio.real) - 1.0)))
        ok &= drift < 1e-3 and fid < 1e-5 and const_resid < 1e-6
        details.append(f"({sigma0:g},{gamma0:g}): drift={drift:.1e} "
                       f"fid={fid:.1e} const={const_resid:.1e}")
    return ok, "; ".join(details)


def crit_8_frozen_spreading():
    """Width of the accelerated (3,1) packet follows a + b t/gamma(t).

    The reference constants describe the large-t asymptote, so the fit runs
    on t >= 8 of the 0..40 sweep (see decisions ledger); the full sweep is
    still computed and reported.
    """
    ts = tuple(np.arange(0.0, 40.5, 4.0))
    rec = _field_sweep(3.0, 1.0, ts)
    sig = np.array([r.fit_rho.sigma_star for r in rec])
    tarr = np.array(ts)
    mask = tarr >= 8.0
    u = tarr[mask] / np.sqrt(1.0 + (0.1 * tarr[mask]) ** 2)
    design = np.vstack([np.ones_like(u), u]).T
    coef, *_ = np.linalg.lstsq(design, sig[mask], rcond=None)
    a, b = float(coef[0]), float(coef[1])
    resid = float(np.max(np.abs(design @ coef - sig[mask])))
    rng = float(sig.max() - sig.min())
    ok = (abs(a / 2.092 - 1.0) < 0.10 and abs(b / 0.238 - 1.0) < 0.10
          and resid < 0.02 * rng)
    return ok, (f"a={a:.4f} (target 2.092), b={b:.4f} (target 0.238), "
                f"fit residual {resid:.4f} vs 2% of range {0.02*rng:.4f}; "
                f"sigma(0)={sig[0]:.3f}")


def crit_9_imag_residual():
    """Imaginary part discarded by the density similarity stays small.

    Evaluated over the spreading era t in [4, 40] of the (0.3, 1) field
    packet; the t = 0 slice carries a larger transient (reported) -- see the
    decisions ledger.
    """
    ts = tuple(np.arange(0.0, 40.5, 4.0))
    rec = _field_sweep(0.3, 1.0, ts)
    res = {r.slice.t: r.fit_rho.imag_residual for r in rec}
    worst = max(v for t, v in res.items() if t >= 4.0)
    ok = worst <= 5e-4
    return ok, (f"worst imag residual on t in [4,40]: {worst:.2e} (tol 5e-4); "
                f"t=0 transient: {res[0.0]:.2e}")


def _closed_phase_offset(t_end: float, vartheta: float = 100.0):
    ts = np.linspace(0.0, t_end, max(int(t_end * 2), 200) + 1)
    return float(_closed(vartheta).trace_phase(ts).offset[-1])


def crit_10a_phase_closed_literal():
    """|offset(+pi/4)| < 0.05 at t = 50 for vartheta = 100 (known failure)."""
    off = _closed_phase_offset(50.0)
    err = abs(off + np.pi / 4.0)
    return err < 0.05, (f"offset(50) = {off:.4f}, |offset + pi/4| = {err:.3f} "
                        f"(tol 0.05); analytic offset is -arctan(t/vartheta)/2 "
                        f"= {-0.5*np.arctan(50/100.0):.4f}, so t >> 100 is required")


def crit_10a_phase_closed_asymptotic():
    """Same limit probed in its regime: offset -> -pi/4 once t >> vartheta."""
    off = _closed_phase_offset(2000.0)
    err = abs(off + np.pi / 4.0)
    return err < 0.05, f"offset(2000) = {off:.4f}, |offset + pi/4| = {err:.3f} (tol 0.05)"


def crit_10b_phase_field():
    """Field packet phase rides the classical action: bounded offset, matching slope."""
    pk = packet_for({"sigma0": 0.3, "gamma0": 10.0, "force": 0.1}, "uniform-field",
                    71.0, 40.0)
    ts = np.linspace(0.0, 40.0, 161)
    trace = pk.trace_phase(ts)
    off = trace.offset
    mask = ts >= 20.0
    slope_phi = np.polyfit(ts[mask], trace.phi[mask], 1)[0]
    slope_scl = np.polyfit(ts[mask], trace.s_cl_over_hbar[mask], 1)[0]
    rel = abs(slope_phi / slope_scl - 1.0)
    ok = float(np.max(np.abs(off))) < 1.0 and rel < 0.03
    return ok, (f"max |offset| = {float(np.max(np.abs(off))):.3f} (tol 1); "
                f"slope ratio - 1 = {rel:.4f} (tol 0.03)")


def crit_11_special_functions():
    """Identity, recurrence, derivative, ODE, Wronskian, and K1 oracles."""
    probs = []
    # D0 / D1 identities
    for z in (1.0 + 1.0j, 2.0 + 0.0j, -0.7 + 0.4j):
        z = complex(z)
        if abs(pcf_d(0.0, z) - np.exp(-z * z / 4)) > 1e-12:
            probs.append(f"D0 identity at {z}")
        if abs(pcf_d(1.0, z) - z * np.exp(-z * z / 4)) > 1e-12:
            probs.append(f"D1 identity at {z}")
    # recurrence D_{nu+1} - z D_nu + nu D_{nu-1} = 0
    nu, z = -0.5 + 5.0j, (1.0 + 1.0j) * 3.0
    terms = (pcf_d(nu + 1, z), z * pcf_d(nu, z), nu * pcf_d(nu - 1, z))
    resid = abs(terms[0] - terms[1] + terms[2])
    scale = max(abs(t) for t in terms)
    if resid > 1e-9 * scale:
        probs.append(f"recurrence residual {resid/scale:.1e}")
    # derivative cross-relation D'_nu = (z/2) D_nu - D_{nu+1}
    lhs = pcf_d_dz(nu, z)
    rhs = 0.5 * z * pcf_d(nu, z) - pcf_d(nu + 1, z)
    scale = max(abs(lhs), abs(rhs))
    if abs(lhs - rhs) > 1e-9 * scale:
        probs.append(f"derivative cross-relation {abs(lhs-rhs)/scale:.1e}")
    # ODE residual via the two first-derivative ladder relations
    for nu_i, ray in ((-0.5 - 5.0j, (1 + 1j) / np.sqrt(0.1)),
                      (-0.5 + 5.0j, (1j - 1) / np.sqrt(0.1))):
        s = np.linspace(-20.0, 20.0, 101)
        s = s[np.abs(s) > 0.05]
        zz = ray * s
        d = pcf_d(nu_i, zz)
        dp = pcf_d_dz(nu_i, zz)
        # D'' from differentiating the ladder: D'' = nu D'_{nu-1} - D/2 - z D'/2
        dpm1 = pcf_d_dz(nu_i - 1.0, zz)
        d2 = nu_i * dpm1 - 0.5 * d - 0.5 * zz * dp
        resid = np.abs(d2 + (nu_i + 0.5 - 0.25 * zz * zz) * d)
        scale = np.abs(d) * np.abs(nu_i + 0.5 - 0.25 * zz * zz) + np.abs(d2)
        worst = float(np.max(resid / scale))
        if worst > 1e-7:
            probs.append(f"ODE residual {worst:.1e} on ray {ray:.2f}")
    # Wronskian of the two mode solutions, constant over t.  The Wronskian
    # is ~e^{pi M^2/2F} smaller than its two terms (it measures the
    # exponentially weak mode mixing), so the probe stays in the conversion
    # window |p + F t| <= 0.3 where pointwise round-off resolves it.
    cfg = _field_cfg(0.3, 1.0)
    wr = []
    for t in np.linspace(-3.0, 3.0, 13):
        fp, fm, dfp, dfm = mode_pair(cfg, np.array([1e-9 + 0.1 * t]), derivatives=True)
        wr.append(complex(fp[0] * dfm[0] - fm[0] * dfp[0]))
    wr = np.array(wr)
    drift = float(np.max(np.abs(wr - wr[0]) / np.abs(wr[0])))
    if drift > 1e-8:
        probs.append(f"Wronskian drift {drift:.1e}")
    # K1: quadrature vs high-precision Maclaurin series oracle
    rng = np.random.default_rng(7)
    radii = np.geomspace(1e-2, 30.0, 100)
    args = rng.uniform(-0.499 * np.pi, 0.499 * np.pi, 100)
    worst_k1 = 0.0
    for r, th in zip(radii, args):
        z = r * np.exp(1j * th)
        ref = k1_series_reference(z)
        got = complex(bessel_k1(z))
        worst_k1 = max(worst_k1, abs(got - ref) / abs(ref))
    if worst_k1 > 1e-9:
        probs.append(f"K1 vs series {worst_k1:.1e}")
    ok = not probs
    return ok, ("all sub-checks passed; worst K1-vs-series "
                f"{worst_k1:.1e}") if ok else "; ".join(probs)


def k1_series_reference(z: complex, dps: int = 40) -> complex:
    """Independent small-argument series for K1, in high precision.

    K1(z) = 1/z + ln(z/2) I1(z) - (z/4) sum_k (psi(k+1)+psi(k+2))
            (z^2/4)^k / (k! (k+1)!), evaluated with mpmath arithmetic so the
    alternating sum keeps its accuracy out to |z| ~ 30.
    """
    import mpmath as mp

    with mp.workdps(dps + int(abs(z))):
        zz = mp.mpc(z)
        q = zz * zz / 4
        # I1 and the digamma-weighted sum share the term (z^2/4)^k/(k!(k+1)!)
        i1 = mp.mpf(0)
        corr = mp.mpf(0)
        term = mp.mpf(1)  # (z^2/4)^k / (k! (k+1)!)
        harmonic = mp.mpf(0)  # psi(k+1) + gamma = H_k
        for k in range(0, 300):
            if k > 0:
                term = term * q / (k * (k + 1))
                harmonic += mp.mpf(1) / k
            psi_sum = 2 * harmonic + mp.mpf(1) / (k + 1) - 2 * mp.euler
            i1 += term
            corr += psi_sum * term
            if abs(term) < mp.mpf(10) ** (-(dps + int(abs(z)) + 10)) * max(abs(i1), 1):
                break
        i1 = i1 * zz / 2
        val = 1 / zz + mp.log(zz / 2) * i1 - (zz / 4) * corr
        return complex(val)


def crit_12_ordering():
    """G_psi decays at least as fast as G_rho; width-slope orderings."""
    probs = []
    # (a) G_psi <= G_rho + 0.02 across families
    for vt in (100.0, 10.0, 1.0, 0.1):
        for r in _closed_sweep(vt, (5.0, 10.0, 20.0), -35.0, 40.0, 3001):
            t, g_psi, g_rho = r.slice.t, r.fit_psi.score, r.fit_rho.score
            if g_psi > g_rho + 0.02:
                probs.append(f"closed ctheta={vt:g} t={t:g}: "
                             f"G_psi {g_psi:.3f} > G_rho {g_rho:.3f} + 0.02")
    for sigma0, gamma0 in ((3.0, 1.0), (3.0, 10.0), (0.3, 10.0), (0.3, 1.0)):
        for r in _gauss_sweep(sigma0, gamma0, (8.0, 16.0)):
            if r.fit_psi.score > r.fit_rho.score + 0.02:
                probs.append(f"gauss ({sigma0:g},{gamma0:g}) t={r.slice.t:g} ordering")
    for sigma0, gamma0 in ((3.0, 1.0), (0.3, 1.0), (0.3, 10.0)):
        for r in _field_sweep(sigma0, gamma0, (8.0, 16.0)):
            if r.fit_psi.score > r.fit_rho.score + 0.02:
                probs.append(f"field ({sigma0:g},{gamma0:g}) t={r.slice.t:g} ordering")
    # (b) slower spreading at higher gamma0 (same sigma0)
    slopes = {}
    for gamma0 in (1.0, 10.0):
        ts = (8.0, 10.0, 12.0, 14.0, 16.0)
        rec = _gauss_sweep(3.0, gamma0, ts)
        sig = [r.fit_rho.sigma_star for r in rec]
        slopes[gamma0] = float(np.polyfit(ts, sig, 1)[0])
    if not slopes[10.0] < slopes[1.0]:
        probs.append(f"width slopes: gamma0=10 {slopes[10.0]:.3f} "
                     f"not < gamma0=1 {slopes[1.0]:.3f}")
    # (c) superluminal width growth for the sub-Compton closed packet
    ts_c = (10.0, 15.0, 20.0)
    sig01 = [r.fit_rho.sigma_star for r in _closed_sweep(0.1, ts_c, -30.0, 30.0, 6001)]
    slope_c = float(np.polyfit(ts_c, sig01, 1)[0])
    if not slope_c > 1.0:
        probs.append(f"closed ctheta=0.1 width slope {slope_c:.3f} not > c")
    ok = not probs
    detail = (f"orderings hold; gauss slopes {slopes[1.0]:.3f} vs {slopes[10.0]:.4f}; "
              f"closed 0.1 slope {slope_c:.3f}")
    return ok, detail if ok else "; ".join(probs)


_CRITERIA = [
    ("1", "closed-form vs quadrature oracle", crit_1_closed_form_oracle, False),
    ("2", "best-fit initial widths", crit_2_initial_widths, False),
    ("3", "mean position follows v0 t", crit_3_mean_position, False),
    ("4", "lightcone peak splitting", crit_4_peak_splitting, False),
    ("5", "charge-density negativity", crit_5_negative_density, False),
    ("6", "backward-mode suppression", crit_6_suppression, False),
    ("7", "field family conservation/fidelity/reconstruction", crit_7_field_family, False),
    ("8", "frozen spreading width law", crit_8_frozen_spreading, False),
    ("9", "imaginary residual bound", crit_9_imag_residual, False),
    ("10a", "phase offset -pi/4 at t=50 (literal)", crit_10a_phase_closed_literal, True),
    ("10a'", "phase offset -pi/4 in regime t >> vartheta", crit_10a_phase_closed_asymptotic, False),
    ("10b", "field phase rides the classical action", crit_10b_phase_field, False),
    ("11", "special-function suites", crit_11_special_functions, False),
    ("12", "similarity and spreading orderings", crit_12_ordering, False),
]


def run_all(verbose: bool = True) -> list[CriterionResult]:
    results = []
    for cid, name, fn, known in _CRITERIA:
        try:
            passed, detail = fn()
        except Exception as exc:  # keep going; a crash is a failure with detail
            passed, detail = False, f"exception: {exc!r}"
        rec = CriterionResult(cid=cid, name=name, passed=passed,
                              detail=detail, known_failure=known and not passed)
        results.append(rec)
        if verbose:
            status = "PASS" if passed else ("FAIL (known)" if rec.known_failure else "FAIL")
            print(f"[{status:>11s}] criterion {cid:4s} {name}: {detail}")
    return results
