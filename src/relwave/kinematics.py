"""Classical reference motion.

Free motion, hyperbolic motion in a uniform electric field, Lorentz factors,
proper time, and the classical actions the wavepacket phases are compared
against; both actions are closed forms.  The units are natural and fixed:
m = c = hbar = q = 1.

Each packet config holds its motion, so this is the one place that turns
gamma0 into p0, defaults the field x0 to the hyperbola vertex and checks
gamma0, v0 and the force, by comparisons that NaN fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


__all__ = [
    "FreeMotion",
    "FieldMotion",
    "TrajectorySample",
    "free_trajectory",
    "field_trajectory",
    "action_free",
    "action_field",
]


def _check_gamma(gamma0: float):
    if not gamma0 >= 1.0:
        raise ValueError("gamma0 must be >= 1")


@dataclass(frozen=True)
class FreeMotion:
    """Uniform motion at velocity v0 starting from x0."""

    v0: float
    x0: float = 0.0

    def __post_init__(self):
        if not abs(self.v0) < 1.0:
            raise ValueError(f"|v0| must be < c, got v0={self.v0}")

    @property
    def gamma0(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.v0**2)

    @property
    def p0(self) -> float:
        return self.v0 * self.gamma0

    @classmethod
    def from_gamma(cls, gamma0: float, x0: float = 0.0) -> "FreeMotion":
        _check_gamma(gamma0)
        return cls(v0=math.sqrt(1.0 - 1.0 / gamma0**2), x0=x0)


@dataclass(frozen=True)
class FieldMotion:
    """Hyperbolic motion under a constant force (charge times field).

    The force is also the proper acceleration.  The worldline starts at
    x(0) = x0, by default the hyperbola vertex 1/force, with t0 = p0/force.
    """

    force: float
    p0: float = 0.0
    x0: float | None = None

    def __post_init__(self):
        if not abs(self.force) > 0.0:
            raise ValueError("force must be nonzero")
        if self.x0 is None:
            object.__setattr__(self, "x0", 1.0 / self.force)

    @property
    def t0(self) -> float:
        return self.p0 / self.force

    @classmethod
    def from_gamma(cls, gamma0: float, force: float,
                   x0: float | None = None) -> "FieldMotion":
        _check_gamma(gamma0)
        return cls(force=force, p0=math.sqrt(gamma0**2 - 1.0), x0=x0)


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    x: float
    v: float
    gamma: float
    tau: float


def free_trajectory(t: float, motion: FreeMotion) -> TrajectorySample:
    g0 = motion.gamma0
    return TrajectorySample(
        t=t,
        x=motion.x0 + motion.v0 * t,
        v=motion.v0,
        gamma=g0,
        tau=t / g0,
    )


def field_trajectory(t: float, motion: FieldMotion) -> TrajectorySample:
    """Sample of the uniformly accelerated worldline at coordinate time t.

    With a the force, u = a (t + t0) and u0 = a t0 = p0: gamma = sqrt(1 + u^2)
    and x = x0 + t (u + u0)/(gamma + gamma0), which is x0 + (gamma - gamma0)/a
    for either sign of a, with no a^-2 to overflow or cancel.  t may be < 0.
    """
    a = motion.force
    t0 = motion.t0
    u, u0 = a * (t + t0), a * t0
    gamma = math.sqrt(1.0 + u * u)
    x = motion.x0 + t * (u + u0) / (gamma + math.sqrt(1.0 + u0 * u0))
    v = u / gamma
    tau = (math.asinh(u) - math.asinh(u0)) / a
    return TrajectorySample(t=t, x=x, v=v, gamma=gamma, tau=tau)


def action_free(t: float, motion: FreeMotion) -> float:
    """Classical action of free motion, the Lagrangian -1/gamma0 times t."""
    return (-1.0 / motion.gamma0) * t


def action_field(t: float, motion: FieldMotion) -> float:
    """Classical action under a uniform force, in closed form.

    S(t) = -int_0^t (1 + a^2 s (s+t0)) / sqrt(1 + a^2 (s+t0)^2) ds, a the force.
    With u = a (s + t0) the integrand is sqrt(1+u^2) - a t0 u / sqrt(1+u^2),
    so S = -1/a [(u sqrt(1+u^2) + asinh u)/2 - a t0 sqrt(1+u^2)]
    between s = 0 and s = t.
    """
    a = motion.force
    t0 = motion.t0

    def primitive(s):
        u = a * (s + t0)
        root = math.sqrt(1.0 + u * u)
        return 0.5 * (u * root + math.asinh(u)) - a * t0 * root

    return 1.0 / a * (primitive(0.0) - primitive(t))
