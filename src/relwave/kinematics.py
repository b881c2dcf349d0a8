"""Classical reference motion.

Free motion and hyperbolic motion in a uniform electric field.  Each motion
gives its worldline x(t), its momentum p(t) = m v gamma and the classical
action(t) the wavepacket phases are compared against, all in closed form.
The units are natural and fixed: m = c = hbar = q = 1.

Each packet config holds its motion, so this is the one place that turns
gamma0 into p0, defaults the field x0 to the hyperbola vertex and checks
gamma0, v0 and the force, by comparisons that NaN fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


__all__ = ["FreeMotion", "FieldMotion"]


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

    def x(self, t: float) -> float:
        return self.x0 + self.v0 * t

    def p(self, t: float) -> float:
        """The momentum m v gamma, p0 at every t."""
        return self.p0

    def action(self, t: float) -> float:
        """Classical action, the Lagrangian -1/gamma0 times t."""
        return (-1.0 / self.gamma0) * t


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

    def x(self, t: float) -> float:
        """The uniformly accelerated worldline at coordinate time t.

        With a the force, u = a (t + t0) and u0 = a t0 = p0: gamma = sqrt(1 + u^2)
        and x = x0 + t (u + u0)/(gamma + gamma0), which is x0 + (gamma - gamma0)/a
        for either sign of a, with no a^-2 to overflow or cancel.  t may be < 0.
        """
        a = self.force
        t0 = self.t0
        u, u0 = a * (t + t0), a * t0
        gamma, gamma0 = math.sqrt(1.0 + u * u), math.sqrt(1.0 + u0 * u0)
        return self.x0 + t * (u + u0) / (gamma + gamma0)

    def p(self, t: float) -> float:
        """The momentum m v gamma = u = a (t + t0), a the force."""
        return self.force * (t + self.t0)

    def action(self, t: float) -> float:
        """Classical action under a uniform force, in closed form.

        S(t) = -int_0^t (1 + a^2 s (s+t0)) / sqrt(1 + a^2 (s+t0)^2) ds, a the force.
        With u = a (s + t0) the integrand is sqrt(1+u^2) - a t0 u / sqrt(1+u^2),
        so S = -1/a [(u sqrt(1+u^2) + asinh u)/2 - a t0 sqrt(1+u^2)]
        between s = 0 and s = t.
        """
        a = self.force
        t0 = self.t0

        def primitive(s):
            u = a * (s + t0)
            root = math.sqrt(1.0 + u * u)
            return 0.5 * (u * root + math.asinh(u)) - a * t0 * root

        return 1.0 / a * (primitive(0.0) - primitive(t))
