import numpy as np
import pytest

from relwave.packets import packet_for

CASES = {
    "closed-free": {"vartheta": 10.0, "v0": 0.25},
    "gauss-free": {"sigma0": 0.3, "gamma0": 10.0},
    "uniform-field": {"sigma0": 3.0, "gamma0": 1.0, "force": 0.1},
}


def _per_point_trace(pk, ts):
    """The phase trace evaluated one (t, x) point at a time, through
    ``psi_dpsi``: the bisection of ``analysis.phase_trace`` written out."""
    def phase(t):
        return float(np.angle(pk.psi_dpsi(t, np.array([pk.motion.x(t)]))[0][0]))

    raw = {t: phase(t) for t in ts}
    t_list = list(ts)
    while True:
        gaps = [(a, b) for a, b in zip(t_list[:-1], t_list[1:])
                if abs((raw[b] - raw[a] + np.pi) % (2.0 * np.pi) - np.pi) >= 0.95 * np.pi]
        if not gaps:
            break
        for a, b in gaps:
            raw[0.5 * (a + b)] = phase(0.5 * (a + b))
        t_list = sorted(raw)
    phi = np.unwrap([raw[t] for t in t_list])
    return phi[np.isin(t_list, ts)], len(t_list) - len(ts)


@pytest.mark.parametrize("family", sorted(CASES))
def test_batched_trace_equals_the_per_point_trace(family):
    pk = packet_for(CASES[family], family, 31.0, 12.0)
    refined = 0
    for ts in (np.arange(0.0, 4.125, 0.25), np.arange(0.0, 12.5, 3.0)):
        ref, mids = _per_point_trace(pk, ts)
        refined += mids
        assert np.array_equal(pk.trace_phase(ts).phi, ref)
    if family != "gauss-free":
        assert refined > 0  # the coarse grid needs bisection rounds


@pytest.mark.parametrize("family, case", [
    *((family, CASES[family]) for family in sorted(CASES)),
    ("uniform-field", {**CASES["uniform-field"], "force": -0.1}),
], ids=[*sorted(CASES), "uniform-field-negative-force"])
def test_observation_and_trace_read_the_packets_motion(family, case):
    # the fits are made about the motion's worldline and momentum, and the
    # phase is compared with the motion's action, to the bit
    pk = packet_for(case, family, 31.0, 12.0)
    xs = np.linspace(-30.0, 30.0, 121)
    ts = np.arange(0.0, 12.5, 3.0)
    for t in ts:
        obs = pk.observe(t, xs)
        assert obs.x_bar == pk.motion.x(t) and obs.p_bar == pk.motion.p(t)
    s_cl = pk.trace_phase(ts).s_cl_over_hbar
    assert s_cl.tolist() == [pk.motion.action(t) for t in ts]
