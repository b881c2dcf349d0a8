"""Seeded workload generators.

Each workload is a list of ``relwave.scenarios.Scenario`` objects made from a
seed; relwave sees only those objects.  The seed moves the physical
parameters inside narrow bands and draws the times on the 0.25 grid that
every builtin figure uses, so two seeds give different inputs but about the
same amount of work.  Bands are chosen so the spectral grid sizes, which set
the cost, do not change with the seed: free-packet builds quantize |t| up to
a multiple of 5, so each time is drawn inside one such step.
"""

from __future__ import annotations

import numpy as np

from relwave.scenarios import Scenario

DEFAULT_SEED = 0
NAMES = ("free-metrics", "field-density", "phase-trace")


def _on_grid(rng, lo: float, hi: float) -> float:
    """A time drawn uniformly from the 0.25 grid in [lo, hi]."""
    return 0.25 * int(rng.integers(round(4 * lo), round(4 * hi) + 1))


def _jitter(rng, value: float, rel: float = 0.02) -> float:
    return float(value * np.exp(rng.uniform(-rel, rel)))


def free_metrics(rng) -> list[Scenario]:
    # The free families' Gaussianity scores and widths (fig2/fig5 style):
    # the work is the spectral superposition that gives d/dt psi, K1 in the
    # closed form, the spectral builds (their node count grows as
    # 1/vartheta) and the width fits.  widths re-runs metrics, so half the
    # slices are repeats that hit the packet cache.
    times = (_on_grid(rng, 0.25, 5.0), _on_grid(rng, 5.25, 10.0),
             _on_grid(rng, 10.25, 15.0))
    closed = ({"vartheta": _jitter(rng, 2.0), "v0": 0.25},)
    gauss = ({"sigma0": 0.3, "gamma0": float(rng.choice((1.0, 10.0)))},)
    common = dict(t_list=times, x_min=-30.0, x_max=30.0, x_count=2001,
                  outputs=("metrics", "widths"), normalization="unit-norm")
    return [Scenario(name="closed", family="closed-free", cases=closed, **common),
            Scenario(name="gauss", family="gauss-free", cases=gauss, **common)]


def field_density(rng) -> list[Scenario]:
    # fig7's three uniform-field packets, density and mode spectrum: the
    # only workload with large CSV output, and it mixes D_nu (basis build
    # and modes per time) with the dense field superposition.  The largest
    # |t| sets the basis grid, so it is drawn from a narrow band.
    times = (_on_grid(rng, -12.0, -8.0), 0.0, _on_grid(rng, 15.0, 16.0))
    cases = ({"sigma0": 3.0, "gamma0": 1.0, "force": 0.1},
             {"sigma0": 0.3, "gamma0": 1.0, "force": 0.1},
             {"sigma0": 0.3, "gamma0": 10.0, "force": 0.1})
    cases = tuple({**c, "sigma0": _jitter(rng, c["sigma0"])} for c in cases)
    return [Scenario(name="field", family="uniform-field", cases=cases, t_list=times,
                     x_min=-30.0, x_max=45.0, x_count=2201,
                     outputs=("density", "spectrum"), normalization="peak-normalized",
                     p_min=-25.0, p_max=35.0, p_count=2401)]


def phase_trace(rng) -> list[Scenario]:
    # fig9's phase along the worldline for all three families: hundreds of
    # single-point evaluations.  The superposition runs with Nx = 1, so a
    # chirp-z or blocking change should show no gain here; D_nu per time
    # dominates.
    t_max = 8.0  # the phase grid is 0, 0.25, ..., t_max; its length sets the cost
    cases = ({"family": "closed-free", "vartheta": _jitter(rng, 100.0), "v0": 0.25},
             {"family": "gauss-free", "sigma0": _jitter(rng, 0.3), "gamma0": 10.0},
             {"family": "uniform-field", "sigma0": _jitter(rng, 0.3), "gamma0": 10.0,
              "force": 0.1})
    return [Scenario(name="phase", family="closed-free", cases=cases, t_list=(0.0,),
                     outputs=("phase",), normalization="unit-norm",
                     phase_t_max=t_max, phase_dt=0.25, x_max=40.0)]


def make(name: str, seed: int) -> list[Scenario]:
    """The scenarios of workload ``name`` for ``seed``."""
    gen = {"free-metrics": free_metrics, "field-density": field_density,
           "phase-trace": phase_trace}[name]
    return gen(np.random.default_rng([seed, NAMES.index(name)]))
