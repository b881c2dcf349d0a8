"""Momentum grids and the one momentum sum of the package.

Every wavepacket is a momentum spectrum times modes, summed over p: plane
waves for the free packets, parabolic-cylinder modes for the packet in a
uniform field.  A ``ModeSum`` holds one packet's nodes, trapezoid weights
and modes, and is the only code that joins modes to the sum, a composite
trapezoid rule on a ``momentum_grid``.  The sum has two routes:

* ``superpose`` on uniform x and p grids (every ``linspace`` grid): a
  chirp-z transform (Bluestein's algorithm; Rabiner, Schafer & Rader 1969),
  one FFT convolution whose chirp phases are reduced exactly modulo 2 pi;
* ``superpose_pairs``, the dense sum at (t, x) pairs, each x with the mode
  amplitudes of its own time, in blocks of at most _PAIR_BLOCK points.  Any
  other input of ``superpose`` (single points, non-uniform grids) takes
  this route with one constant row each for psi and d/dt psi.

Both are deterministic: repeated runs give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.fft  # noqa: F401  (numpy would load it on first use, inside a run)

__all__ = [
    "ModeSum",
    "QuadratureError",
    "momentum_grid",
    "superpose",
    "superpose_pairs",
    "trapezoid_weights",
]

# points (x values x nodes) per block of superpose_pairs: about 128 KiB per
# complex temporary; the uniform-field modes take half a block per pcf_d
# call, at most about 2.9 MiB for D_nu alone and 3.1 MiB with its D' (by
# tracemalloc on the F = 0.1 ray: 200-700 B a point, 300-740 B with D'),
# so that a phase trace does not raise peak memory
_PAIR_BLOCK = 8192

# 2 pi = _C1 + _C2 + _C3 (Cody-Waite): _C1 and _C2 hold 21 bits each, so
# n * _C1 and n * _C2 are exact for integers n < 2^32; _C3 adds the rest of
# float(2 pi) and the 2.449e-16 by which float(2 pi) falls short of 2 pi
_C1 = np.ldexp(np.floor(np.ldexp(2.0 * np.pi, 18)), -18)
_C2 = np.ldexp(np.floor(np.ldexp(2.0 * np.pi - _C1, 39)), -39)
_C3 = (2.0 * np.pi - _C1 - _C2) + 2.4492935982947064e-16


class QuadratureError(Exception):
    pass


def trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    """Composite trapezoid weights for an ordered 1-d node array."""
    h = 0.5 * np.diff(nodes)
    w = np.concatenate(([0.0], h))
    w[:-1] += h
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


def _step(v: np.ndarray) -> float | None:
    """The spacing of ``v`` if it is a uniform grid to a few ulps, else None."""
    if len(v) < 2:
        return None
    d = (v[-1] - v[0]) / (len(v) - 1)
    dev = np.max(np.abs(v - (v[0] + np.arange(len(v)) * d)))
    if d == 0.0 or dev > 8.0 * np.finfo(float).eps * max(abs(v[0]), abs(v[-1])):
        return None
    return float(d)


def _next_fast_len(n: int) -> int:
    """The smallest m >= n whose prime factors are all 2, 3, 5, 7 or 11, the
    factors pocketfft has dedicated passes for: the size that SciPy's
    ``next_fast_len`` gives for a complex transform."""
    m = max(n, 1)
    while True:
        rest = m
        for f in (2, 3, 5, 7, 11):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return m
        m += 1


def _chirp(half_theta: float, n: int) -> np.ndarray:
    """exp(i half_theta m^2) for m = 0 .. n-1, the phase reduced exactly.

    half_theta is split so that its high part times the integer m^2 is an
    exact product; that product is reduced modulo 2 pi by Cody-Waite, and
    the low part's product, small and correctly rounded, is added after.
    """
    m2 = np.arange(n, dtype=float) ** 2
    bits = 53 - int(n - 1).bit_length() * 2
    scale = bits - int(np.frexp(half_theta)[1])
    hi = float(np.ldexp(np.rint(np.ldexp(half_theta, scale)), -scale))
    lo = half_theta - hi
    phase = hi * m2
    k = np.rint(phase / (2.0 * np.pi))
    r = ((phase - k * _C1) - k * _C2) - k * _C3 + lo * m2
    return np.exp(1j * r)


def _superpose_czt(p: np.ndarray, dp: float, amps: np.ndarray, xs: np.ndarray,
                   dx: float) -> np.ndarray:
    """sum_j a_j exp(i p_j x_k) for each row a of ``amps`` on uniform grids,
    by Bluestein: p_j x_k = p_j x_0 + p_0 (x_k - x_0) + theta j k with
    theta = dp dx, and j k = (j^2 + k^2 - (k - j)^2) / 2."""
    n_p, n_x = len(p), len(xs)
    w = _chirp(0.5 * dp * dx, max(n_p, n_x))
    size = _next_fast_len(n_p + n_x - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:n_x] = np.conj(w[:n_x])
    kernel[size - n_p + 1:] = np.conj(w[n_p - 1:0:-1])
    u = amps * np.exp(1j * p * xs[0]) * w[:n_p]
    conv = np.fft.ifft(np.fft.fft(u, size, axis=-1) * np.fft.fft(kernel), axis=-1)[:, :n_x]
    post = np.exp(1j * p[0] * (xs - xs[0])) * w[:n_x]
    return conv * post


def superpose(p: np.ndarray, amp: np.ndarray, damp: np.ndarray, xs: np.ndarray):
    """psi(x) = sum_p amp_p exp(i p x) on ``xs``, and the same sum of
    ``damp`` (the mode time derivatives), which gives d/dt psi.

    ``amp`` and ``damp`` already carry the quadrature weights.  When ``xs``
    and ``p`` are both uniform grids the two sums are one chirp-z transform
    (the kernel's FFT is shared).  Otherwise both are one ``superpose_pairs``
    call with one constant row each, so the value at x has the bits of that x
    evaluated alone, whichever other points come with it.
    """
    p = np.asarray(p, dtype=float)
    xs = np.asarray(xs, dtype=float)
    dp, dx = _step(p), _step(xs)
    if dp is not None and dx is not None:
        return tuple(_superpose_czt(p, dp, np.stack([amp, damp]), xs, dx))
    return tuple(superpose_pairs(p, [lambda t, a=a: np.broadcast_to(a, (len(t), len(p)))
                                     for a in (amp, damp)], np.zeros(len(xs)), xs))


def superpose_pairs(p: np.ndarray, amp_rows, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """psi_k = sum_j a_j(t_k) exp(i p_j x_k) at each pair (ts[k], xs[k]), one
    row of sums per function in ``amp_rows``.

    Each function gives the weighted amplitudes a_j(t_k), one row per time
    of a block of at most _PAIR_BLOCK points (one time when Np exceeds it),
    summed by ``einsum`` against the block's one set of exponentials; not by
    a BLAS product, whose kernel (and rounding) changes with the number of
    rows: the value of a pair does not depend on the pairs evaluated with it.
    """
    ts = np.asarray(ts, dtype=float)
    xs = np.asarray(xs, dtype=float)
    out = np.empty((len(amp_rows), len(ts)), dtype=complex)
    rows = max(1, _PAIR_BLOCK // len(p))
    for i0 in range(0, len(ts), rows):
        block = np.exp(1j * np.outer(xs[i0:i0 + rows], p))
        for o, amps in zip(out, amp_rows):
            o[i0:i0 + rows] = np.einsum("ij,ij->i", block, amps(ts[i0:i0 + rows]))
    return out


@dataclass(frozen=True)
class ModeSum:
    """psi(t, x) = sum_j w_j a_j(t) exp(i p_j x) on momentum nodes ``p``
    with trapezoid ``weights``.

    ``modes(t, derivatives)`` gives the modes a_j(t) on the nodes, and with
    ``derivatives`` also d/dt a_j(t); ``t`` is a scalar or a column of times
    (one row of modes per time).
    """

    p: np.ndarray
    weights: np.ndarray
    modes: Callable

    def psi_dpsi(self, t: float, xs: np.ndarray):
        """psi(t, xs) and d/dt psi(t, xs)."""
        a, da = self.modes(t, True)
        return superpose(self.p, self.weights * a, self.weights * da, xs)

    def psi_at(self, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """psi at each pair (ts[k], xs[k]) from the modes alone, one row per
        time; each value has the bits of ``psi_dpsi(ts[k], [xs[k]])[0]``."""
        return superpose_pairs(
            self.p, [lambda t: self.weights * self.modes(t[:, None], False)], ts, xs)[0]
