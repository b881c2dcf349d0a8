"""``"%.17g" % v`` for arrays of floats, byte for byte.

``format_g17`` writes each value as the NUL-padded bytes of a 32-byte row
of little-endian words, so that deleting the NULs of many rows gives their
text at once.  The 17
digits of a = |v| are a 10^s rounded to an integer, for the s that puts
a 10^s in [10^16, 10^17): Dekker's exact product (1971) of a with a
double-double 10^s, whose error is below 4e-15 of the last digit.  Their
characters come from a table of 0000 .. 9999; the layouts of ``%g``
(fixed for decimal exponents -4 .. 16, else d.ddde+XX; trailing zeros cut,
``-0``, 2 or 3 exponent digits) from word tables and byte masks.  A value
the product cannot certify takes the per-value format, the shape of
Grisu3 (Loitsch 2010): a non-finite one, |v| outside ``_FAST_RANGE`` (0
excepted), and one whose product lies within ``_TIE_MARGIN`` of a rounding
tie, where ``%.17g`` rounds half to even.  So every byte is that of
``"%.17g" % v``.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["format_g17"]

_FAST_RANGE = (1e-250, 1e250)
_TIE_MARGIN = 1e-10  # in units of the 17th digit; the product's error is < 4e-15
_POW_MIN, _POW_MAX = -235, 268  # s = 16 - floor(log10 |v|), +-1, over _FAST_RANGE
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter of a double into 26-bit halves


@functools.cache
def _tables():
    """10^s as double-doubles (hi, lo) for s in [_POW_MIN, _POW_MAX], exact
    to 2^-106; the characters of 0000 .. 9999 as uint64; trailing zeros of
    each; the masks of the digit slots by (dot position, digits kept); the
    sign-and-"0.000" head words and the exponent words."""
    pow_hi, pow_lo = [], []
    for s in range(_POW_MIN, _POW_MAX + 1):
        ten = 10 ** abs(s)
        if s >= 0:
            hi = float(ten)
            lo = float(ten - int(hi))
        else:  # 10^s - hi = (den - num ten) / (den ten) for hi = num/den
            hi = 1 / ten
            num, den = hi.as_integer_ratio()
            lo = (den - num * ten) / (den * ten)
        pow_hi.append(hi)
        pow_lo.append(lo)
    q = np.arange(10000)
    chars = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + 48
    quad = chars.astype(np.uint8).view("<u4").ravel().astype("<u8")
    zeros = (q % 10 == 0).astype(np.int64) + (q % 100 == 0) + (q % 1000 == 0) + (q == 0)
    # 18 slots for 17 digits and a dot at slot k (k = 18: no dot), kept up
    # to the last of the nd significant digits or the end of the integer
    # part, whichever is later (the dot only if a digit follows it): slots
    # below k keep their digit, slots above k take the digit below them
    k = np.arange(19)[:, None, None]
    nd = np.arange(18)[None, :, None]
    c = np.arange(24)[None, None, :]
    n_out = np.where(k == 18, nd, np.where(nd > k, nd + 1, k))
    masks = np.stack([(c < k) & (c < n_out), (c > k) & (c < n_out),
                      (c == k) & (k < n_out)], axis=2).astype(np.uint8)
    masks = masks * np.array([255, 255, 46], np.uint8)[:, None]
    masks = masks.view("<u8").reshape(19 * 18, 9).T.copy()
    head = np.array([int.from_bytes(sign + b"0.000"[:m + 1 if m else 0], "little")
                     for sign in (b"", b"-") for m in range(5)], "<u8")
    x = np.arange(-330, 331)
    ax = np.abs(x)
    exp = np.zeros((len(x), 8), np.uint8)
    exp[:, 2:7] = np.stack([np.full_like(x, 101), np.where(x < 0, 45, 43),
                            np.where(ax >= 100, ax // 100 + 48, 0), ax // 10 % 10 + 48,
                            ax % 10 + 48], axis=1)
    exp[326:347] = 0  # -4 <= x < 17 is the fixed layout
    return (np.array(pow_hi), np.array(pow_lo), quad, zeros, masks, head,
            exp.view("<u8").ravel())


def _split(a):
    big = _SPLIT * a
    hi = big - (big - a)
    return hi, a - hi


def _scaled(a, s, pow_hi, pow_lo):
    """Integer part and fraction of a 10^s, to 1e-14, for a 10^s in about
    [1e16, 1e17]: Dekker's exact product a hi = p + e plus a lo."""
    hi, lo = pow_hi[s - _POW_MIN], pow_lo[s - _POW_MIN]
    p = a * hi
    a_hi, a_lo = _split(a)
    h_hi, h_lo = _split(hi)
    t = (((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo) + a * lo
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def format_g17(v: np.ndarray) -> np.ndarray:
    """The bytes of ``"%.17g" % v`` for each value of the 1-d float array
    ``v``, NUL-padded in bytes 0..30 of a row of four uint64 words; byte 31
    is left 0 for a separator.  Word 0 holds the sign and the "0.000" head
    of the fixed layout below 1, words 1-3 the 17 digit slots around the
    dot, trailing zeros cut, and word 3 also the exponent."""
    pow_hi, pow_lo, quad, zeros, masks, head, exp = _tables()
    a = np.abs(v)
    zero = a == 0
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    a = np.where(fast, a, 1.0)  # 0 is formatted as 1, then given the digit 0
    fast |= zero
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    n, frac = _scaled(a, s, pow_hi, pow_lo)
    # where log10 was off by one; a second miss (a 10^s within 1e-14 of
    # 10^16 or 10^17) is left to the per-value format
    off = np.flatnonzero((n < 10**16) | (n >= 10**17))
    if len(off):
        s[off] += np.where(n[off] < 10**16, 1, -1)
        n[off], frac[off] = _scaled(a[off], s[off], pow_hi, pow_lo)
        fast[off] &= (n[off] >= 10**16) & (n[off] < 10**17)
    fast &= np.abs(frac - 0.5) > _TIE_MARGIN
    n += frac > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    x = 16 - s + carry  # the decimal exponent
    d0 = n // 10**16
    hi8, lo8 = np.divmod(n - d0 * 10**16, 10**8)
    g1, g2 = np.divmod(hi8, 10000)
    g3, g4 = np.divmod(lo8, 10000)
    cut = zeros[g4]
    for g, before in ((g3, 4), (g2, 8), (g1, 12)):
        cut += (cut == before) * zeros[g]
    fixed = (x >= -4) & (x < 17)
    below_one = fixed & (x < 0)
    dot = 1 + (fixed & (x >= 0)) * x + below_one * 17
    m = masks.take(dot * 18 + 17 - cut, axis=1)
    c1, c2, c3, c4 = quad[g1], quad[g2], quad[g3], quad[g4]
    b8, b24, b40, b56 = (np.uint64(b) for b in (8, 24, 40, 56))
    r1 = (d0 + 48 - zero).astype("<u8") | (c1 << b8) | (c2 << b40)
    r2 = (c2 >> b24) | (c3 << b8) | (c4 << b40)
    r3 = c4 >> b24
    out = np.empty((len(v), 4), "<u8")
    out[:, 0] = head[np.signbit(v) * 5 - below_one * x]
    out[:, 1] = (r1 & m[0]) | ((r1 << b8) & m[3]) | m[6]
    out[:, 2] = (r2 & m[1]) | (((r2 << b8) | (r1 >> b56)) & m[4]) | m[7]
    out[:, 3] = (r3 & m[2]) | (((r3 << b8) | (r2 >> b56)) & m[5]) | m[8] | exp[x + 330]
    text = out.view(np.uint8)
    for i in np.flatnonzero(~fast):
        b = b"%.17g" % v[i]
        text[i, :31] = 0
        text[i, :len(b)] = np.frombuffer(b, np.uint8)
    return out
