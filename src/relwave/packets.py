"""One packet object per case, whatever its family.

The scenarios and the acceptance checks see a wavepacket only through
``Packet``: its one per-time record ``observe`` (an ``Observation``), psi
alone, the classical worldline and action, and its momentum distribution.
``packet_for`` is the one place that reads a case dict or names a family.
The momentum sum of a gauss-free or uniform-field packet
(``quadrature.ModeSum``) is fixed by |x| <= x_extent and |t| <= t_max, so
every time and grid of a case uses the same build, made at the packet's
first evaluation and held by the packet alone: a case is checked without
building any sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from inspect import Parameter, signature
from typing import Callable

import numpy as np

from .analysis import (DensitySlice, GaussFitResult, PhaseTrace, WaveSlice, charge_density,
                       gauss_similarity_psi, gauss_similarity_rho, phase_trace)
from .field_packets import FieldPacketConfig, field_mode_basis
from .free_packets import (ClosedPacketConfig, GaussianPacketConfig, _closed_form,
                           gauss_spectral, gauss_spectrum, spectrum_closed)
from .kinematics import (FieldMotion, FreeMotion, action_field, action_free,
                         field_trajectory, free_trajectory)

__all__ = ["FAMILIES", "Observation", "Packet", "ScenarioError", "packet_for"]


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Observation:
    """A packet's slice and charge density at one time on one grid, and the
    classical (x_bar, p_bar) its Gaussian fits are made about, each fit on
    first read and at most once."""

    slice: WaveSlice
    density: DensitySlice
    x_bar: float
    p_bar: float

    @cached_property
    def fit_psi(self) -> GaussFitResult:
        return gauss_similarity_psi(self.slice, self.x_bar, self.p_bar)

    @cached_property
    def fit_rho(self) -> GaussFitResult:
        return gauss_similarity_rho(self.density, self.x_bar)


@dataclass(frozen=True)
class Packet:
    """One wavepacket.

    ``psi_dpsi(t, xs)`` gives psi and d/dt psi on ``xs``, ``psi_at(ts, xs)``
    psi alone at the pairs (ts[k], xs[k]), with the bits of ``psi_dpsi`` at
    each point (the uniform-field packet then evaluates half the D_nu).
    ``trajectory(t)`` samples the classical worldline and
    ``action(t)`` is the classical action along it.  ``spectrum(ps, t)`` is
    the momentum distribution at ``ps``, ``spectrum_peak(ps)`` the peak that
    peak-normalized spectra divide by: the peak over ``ps`` for the free
    packets, whose distribution is time independent, and the t = 0 peak over
    the momentum nodes for the uniform-field packet.
    """

    label: str
    psi_dpsi: Callable
    psi_at: Callable
    trajectory: Callable
    action: Callable
    spectrum: Callable
    spectrum_peak: Callable

    def slice(self, t: float, xs) -> WaveSlice:
        xs = np.asarray(xs, dtype=float)
        return WaveSlice(t, xs, *self.psi_dpsi(t, xs))

    def observe(self, t: float, xs) -> Observation:
        """The packet at ``t`` on ``xs``, about its classical worldline."""
        sl, s = self.slice(t, xs), self.trajectory(t)
        return Observation(sl, charge_density(sl), s.x, s.gamma * s.v)  # p_bar = m v gamma, m = 1

    def trace_phase(self, ts) -> PhaseTrace:
        """Phase of psi along the classical worldline against the action."""
        return phase_trace(self.psi_at, lambda t: self.trajectory(t).x,
                           self.action, ts)


def _free_packet(label, motion: FreeMotion, psi_dpsi, psi_at, spectrum) -> Packet:
    return Packet(label=label, psi_dpsi=psi_dpsi, psi_at=psi_at,
                  trajectory=partial(free_trajectory, motion=motion),
                  action=partial(action_free, motion=motion),
                  spectrum=lambda ps, t: spectrum(ps),
                  spectrum_peak=lambda ps: float(np.max(spectrum(ps))))


def _closed(x_extent: float, t_max: float, *, vartheta, v0=0.0, x0=0.0) -> Packet:
    # the closed form needs no grid, so x_extent does not enter
    motion = FreeMotion(v0=v0, x0=x0)
    cfg = ClosedPacketConfig(vartheta=vartheta, motion=motion)
    return _free_packet(f"ctheta{vartheta:g}", motion,
                        partial(_closed_form, cfg=cfg),
                        lambda ts, xs: _closed_form(ts, xs, cfg)[0],
                        partial(spectrum_closed, cfg=cfg))


def _gauss(x_extent: float, t_max: float, *, sigma0, gamma0, x0=0.0) -> Packet:
    motion = FreeMotion.from_gamma(gamma0, x0=x0)
    cfg = GaussianPacketConfig(sigma0=sigma0, motion=motion)
    mode_sum = cache(partial(gauss_spectral, cfg, x_extent, t_max))
    return _free_packet(
        f"sigma{sigma0:g}_gamma{gamma0:g}", motion,
        lambda t, xs: mode_sum().psi_dpsi(t, xs),
        lambda ts, xs: mode_sum().psi_at(ts, xs),
        lambda ps: np.abs(gauss_spectrum(ps, cfg.sigma0, motion.p0, motion.x0)) ** 2)


def _field(x_extent: float, t_max: float, *, sigma0, gamma0, force, x0=None) -> Packet:
    motion = FieldMotion.from_gamma(gamma0, force, x0=x0)
    cfg = FieldPacketConfig(sigma0=sigma0, motion=motion)
    mode_sum = cache(partial(field_mode_basis, cfg, x_extent, t_max))

    def density_on_nodes(t):
        return np.abs(mode_sum().modes(t, False)) ** 2

    return Packet(
        label=f"sigma{sigma0:g}_gamma{gamma0:g}_F{force:g}",
        psi_dpsi=lambda t, xs: mode_sum().psi_dpsi(t, xs),
        psi_at=lambda ts, xs: mode_sum().psi_at(ts, xs),
        trajectory=partial(field_trajectory, motion=motion),
        action=partial(action_field, motion=motion),
        spectrum=lambda ps, t: np.interp(ps, mode_sum().p, density_on_nodes(t),
                                         left=0.0, right=0.0),
        spectrum_peak=lambda ps: float(np.max(density_on_nodes(0.0))))


_BUILDERS = {"closed-free": _closed, "gauss-free": _gauss, "uniform-field": _field}
FAMILIES = tuple(_BUILDERS)


def packet_for(case: dict, family: str, x_extent: float, t_max: float) -> Packet:
    """The packet of ``case``, for |x| <= x_extent and |t| <= t_max.

    A case's own ``family`` replaces the argument, its ``t_max`` only ends
    its phase trace (``scenarios._phase_end``), and its other keys bind to
    the keyword-only parameters of ``_closed``, ``_gauss`` or ``_field``.
    An unknown family or key, a missing key and a non-finite or invalid
    value raise ScenarioError naming the case."""
    keys = dict(case)
    family = keys.pop("family", family)
    keys.pop("t_max", None)
    build = _BUILDERS.get(family)
    if build is None:
        raise ScenarioError(f"case {case}: unknown family {family!r}")
    for key, val in case.items():
        if isinstance(val, float) and not np.isfinite(val):
            raise ScenarioError(f"case {case}: {key} must be finite")
    params = {key: p.default for key, p in signature(build).parameters.items()
              if p.kind is Parameter.KEYWORD_ONLY}
    required = {key for key, default in params.items() if default is Parameter.empty}
    for what, names in (("unknown", keys.keys() - params), ("missing", required - keys.keys())):
        if names:
            raise ScenarioError(f"case {case}: {what} key {min(names)!r}")
    try:
        return build(x_extent, t_max, **keys)
    except ValueError as exc:
        raise ScenarioError(f"case {case}: {exc}") from exc
