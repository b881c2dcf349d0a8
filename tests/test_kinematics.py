import math

import numpy as np
import pytest

from relwave.kinematics import FieldMotion, FreeMotion


def test_free_motion_gamma_and_momentum():
    m = FreeMotion(v0=0.25)
    assert abs(m.gamma0 - 1.0327955589886444) < 1e-15
    assert abs(m.p0 - 0.2581988897471611) < 1e-15
    assert abs(m.p0 - m.v0 * m.gamma0) < 1e-12
    for v0 in (1.0, math.nan):
        with pytest.raises(ValueError):
            FreeMotion(v0=v0)


def test_free_motion_from_gamma():
    m = FreeMotion.from_gamma(10.0)
    assert abs(m.gamma0 - 10.0) < 1e-12
    assert abs(m.p0 - math.sqrt(99.0)) < 1e-12
    for gamma0 in (0.5, math.nan):
        with pytest.raises(ValueError, match="gamma0"):
            FreeMotion.from_gamma(gamma0)


def test_free_trajectory_rest_and_moving():
    rest = FreeMotion(v0=0.0, x0=3.0)
    assert rest.x(7.0) == 3.0 and rest.p(7.0) == 0.0
    mov = FreeMotion(v0=0.25)
    assert abs(mov.x(20.0) - 5.0) < 1e-14
    assert mov.p(20.0) == mov.p(0.0) == mov.p0


def test_field_trajectory_reference_points():
    motion = FieldMotion(force=0.1)
    assert motion.x0 == 10.0            # the hyperbola vertex 1/force
    assert abs(motion.x(0.0) - 10.0) < 1e-12
    assert abs(math.sqrt(1.0 + motion.p(10.0) ** 2) - math.sqrt(2.0)) < 1e-12
    # negative times supported
    assert motion.x(-12.0) > 10.0 and motion.p(-12.0) < 0.0


def test_field_trajectory_initial_velocity_matches_momentum():
    motion = FieldMotion(force=0.1, p0=math.sqrt(99.0))
    # p0 = m v gamma at t = 0
    assert abs(motion.p(0.0) - motion.p0) < 1e-12
    a_t0 = motion.force * motion.t0
    assert abs(motion.p(0.0) - a_t0) < 1e-12


def test_field_trajectory_under_a_negative_force():
    # launched forward against the force, the particle turns back at
    # t = -t0 = 5: at t = 3 it is still right of x0 (dividing the
    # displacement by |a| put it at -0.122)
    motion = FieldMotion(force=-0.3, p0=1.5, x0=2.0)
    assert abs(motion.x(3.0) - 4.121950862543114) < 1e-12 and motion.p(3.0) > 0.0


@pytest.mark.parametrize("force", [0.3, -0.3])
def test_field_trajectory_position_moves_with_its_velocity(force):
    # a central difference of x(t) is v(t) = p/sqrt(1 + p^2); at F < 0 on
    # both sides of the turning point t = 5
    motion = FieldMotion(force=force, p0=1.5, x0=2.0)
    h = 1e-5
    for t in (-4.0, 0.0, 3.0, 7.0):
        dxdt = (motion.x(t + h) - motion.x(t - h)) / (2 * h)
        p = motion.p(t)
        assert abs(dxdt - p / math.sqrt(1.0 + p * p)) < 1e-9


def test_trajectory_invariants():
    # the worldline is timelike, and the force raises the momentum
    motion = FieldMotion(force=0.1, p0=2.0)
    ts = np.linspace(-12.0, 40.0, 27)
    xs = np.array([motion.x(float(t)) for t in ts])
    ps = np.array([motion.p(float(t)) for t in ts])
    assert np.all(np.abs(np.diff(xs)) < np.diff(ts))
    assert np.all(np.diff(ps) > 0)


def test_uniform_proper_acceleration():
    motion = FieldMotion(force=0.1)
    h = 1e-6
    for t in (-5.0, 0.0, 13.0):
        dpdt = (motion.p(t + h) - motion.p(t - h)) / (2 * h)
        assert abs(dpdt - motion.force) < 1e-8


def test_proper_time_rate():
    # the Lagrangian is -1/gamma - F t v: without its field term, the rate of
    # the action is minus the proper-time rate 1/gamma = 1/sqrt(1 + p^2)
    motion = FieldMotion(force=0.1, p0=1.0)
    h = 1e-6
    for t in (0.0, 8.0):
        dsdt = (motion.action(t + h) - motion.action(t - h)) / (2 * h)
        dxdt = (motion.x(t + h) - motion.x(t - h)) / (2 * h)
        rate = -(dsdt + motion.force * t * dxdt)
        assert abs(rate - 1.0 / math.sqrt(1.0 + motion.p(t) ** 2)) < 1e-8


def test_action_free_values():
    assert FreeMotion(v0=0.0).action(5.0) == -5.0
    assert FreeMotion(v0=0.25).action(0.0) == 0.0
    assert abs(FreeMotion(v0=0.25).action(10.0) + 9.682458365518542) < 1e-12
    # at t = 1 the action is the Lagrangian -1/gamma0
    assert abs(FreeMotion(v0=0.25).action(1.0) + 0.9682458365518543) < 1e-15


def test_action_field_values():
    motion = FieldMotion(force=0.1)
    assert motion.action(0.0) == 0.0
    assert abs(motion.action(1.0) + 1.0) < 5e-3
    s200 = motion.action(200.0)
    assert abs(s200 / (-0.1 * 200.0**2 / 2.0) - 1.0) < 0.02


def test_action_field_derivative_matches_integrand():
    motion = FieldMotion(force=0.1, p0=0.5)
    a, t0 = motion.force, motion.t0
    h = 1e-4
    for t in (2.0, 15.0):
        ds = (motion.action(t + h) - motion.action(t - h)) / (2 * h)
        u = a * (t + t0)
        integrand = -(1.0 + a * a * t * (t + t0)) / math.sqrt(1.0 + u * u)
        assert abs(ds - integrand) < 1e-6


def test_field_motion_validation():
    for force in (0.0, math.nan):
        with pytest.raises(ValueError, match="force"):
            FieldMotion(force=force)
    for gamma0 in (0.5, math.nan):
        with pytest.raises(ValueError, match="gamma0"):
            FieldMotion.from_gamma(gamma0, force=0.1)
    # p0 = sqrt(gamma0^2 - 1), and x0 defaults to the vertex 1/force
    motion = FieldMotion.from_gamma(10.0, force=-0.2)
    assert motion.p0 == math.sqrt(99.0) and motion.x0 == -5.0
    assert FieldMotion.from_gamma(1.0, force=0.1, x0=3.0).x0 == 3.0


@pytest.mark.parametrize("force", [0.1, 1.0, -0.3])
@pytest.mark.parametrize("p0", [0.0, 3.0, math.sqrt(99.0), -2.0])
def test_action_field_closed_form_matches_trapezoid(force, p0):
    # the closed form replaced a quadrature of the integrand; the integrand
    # changes sign for some (force, p0), so the error is taken relative to
    # int |L| ds
    motion = FieldMotion(force=force, p0=p0)
    a, t0 = motion.force, motion.t0
    for t in (-12.0, -3.7, 0.5, 17.0, 200.0):
        s = np.linspace(0.0, t, 200001)
        u = a * (s + t0)
        lagrangian = -(1.0 + a * a * s * (s + t0)) / np.sqrt(1.0 + u * u)
        ref = np.trapezoid(lagrangian, s)
        scale = abs(np.trapezoid(np.abs(lagrangian), s))
        assert abs(motion.action(t) - ref) <= 1e-9 * scale


def _field_x_by_hyperbola(t, motion):
    # the worldline as the difference of two hyperbola radii, the form
    # the worldline used before: it cancels as a^-2 grows
    a, t0 = motion.force, motion.t0
    return math.copysign(1.0, a) * (math.sqrt(a**-2 + (t + t0) ** 2)
                                    - math.sqrt(a**-2 + t0**2)) + motion.x0


@pytest.mark.parametrize("force", [0.1, -0.1, 0.3, -0.3])
def test_field_trajectory_matches_the_hyperbola_radii(force):
    motion = FieldMotion(force=force, p0=1.5, x0=2.0)
    for t in (-12.0, -4.0, 0.5, 3.0, 7.0, 40.0):
        x, ref = motion.x(t), _field_x_by_hyperbola(t, motion)
        assert abs(x - ref) <= 1e-13 * max(abs(ref), 1.0)


def test_field_trajectory_at_a_vanishing_force_is_uniform_motion():
    # a^-2 overflowed below |F| ~ 1e-154; the worldline is then a straight
    # line at the launch velocity
    p0 = 1.5
    for force in (1e-200, -1e-200):
        motion = FieldMotion(force=force, p0=p0, x0=2.0)
        for t in (-7.0, 0.0, 3.0, 40.0):
            x = motion.x(t)
            ref = 2.0 + t * p0 / math.sqrt(1.0 + p0 * p0)
            assert math.isfinite(x) and abs(x - ref) <= 1e-15 * max(abs(ref), 1.0)
