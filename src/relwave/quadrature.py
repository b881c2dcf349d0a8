"""Momentum grids and the one momentum sum of the package.

Every wavepacket is a momentum spectrum times modes, summed over p: plane
waves for the free packets, parabolic-cylinder modes for the packet in a
uniform field.  ``superpose`` is that sum, a composite trapezoid rule on a
``momentum_grid``.  It runs over fixed blocks of x in a fixed order, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "QuadratureError",
    "momentum_grid",
    "superpose",
    "trapezoid_weights",
]


class QuadratureError(Exception):
    pass


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for an ordered 1-d node array."""
    w = np.zeros(len(nodes))
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    return w


def momentum_grid(p_center: float, half_width: float, node_count: int):
    """Symmetric uniform nodes about ``p_center`` with trapezoid weights.

    Weights sum to the interval length ``2 * half_width``.
    """
    if half_width <= 0:
        raise QuadratureError("half_width must be positive")
    if node_count < 2:
        raise QuadratureError("node_count must be >= 2")
    nodes = np.linspace(p_center - half_width, p_center + half_width, node_count)
    return nodes, trapezoid_weights(nodes)


def superpose(p: np.ndarray, amp: np.ndarray, damp: np.ndarray,
              xs: np.ndarray, hbar: float):
    """psi(x) = sum_p amp_p exp(i p x / hbar) on ``xs``, and the same sum of
    ``damp`` (the mode time derivatives), which gives d/dt psi.

    ``amp`` and ``damp`` already carry the quadrature weights.  The dense
    Nx x Np sum runs over blocks of 512 rows of x.  Each row is summed by
    ``einsum``, not by a BLAS product, whose kernel (and rounding) changes
    with the number of rows: this way the value at x does not depend on
    which other points are evaluated with it.
    """
    xs = np.asarray(xs, dtype=float)
    psi = np.empty(len(xs), dtype=complex)
    dpsi = np.empty(len(xs), dtype=complex)
    for i0 in range(0, len(xs), 512):
        block = np.exp(1j * np.outer(xs[i0:i0 + 512], p) / hbar)
        psi[i0:i0 + 512] = np.einsum("ij,j->i", block, amp)
        dpsi[i0:i0 + 512] = np.einsum("ij,j->i", block, damp)
    return psi, dpsi
