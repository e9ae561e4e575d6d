"""Exact decimal text of float64 arrays, without a Python call per value.

`g17(values)` gives the bytes of Python's `"%.17g" % v` and `f2(values)`
those of `"%.2f" % v`, for every value, as "cells": a (n, width) uint8
array whose row i holds the text of values[i] in order, with NUL pads
anywhere between its bytes.  `join(cells, b",", cells, b"\\n")` lays
cells and separators side by side and drops the pads, which gives the
rows of a CSV file or of an SVG `points` attribute.

The digits are computed in float64 and int64 arithmetic only, with no
extended precision, so the same code runs, and gives the same bytes, on
every platform numpy supports.

%.17g.  For |v| in [1e-280, 1e280] let e = floor(log10|v|), computed
with log10 and so possibly one off at a power of ten.  The significand
is the integer nearest S = |v| 10**(16 - e).  10**(16 - e) is held as
two doubles hi + lo, the double-double nearest it (relative error below
2**-106), computed with Python ints for each exponent a call needs.
Dekker's two-product (Numer. Math. 18, 224 (1971)), with Veltkamp's
split, gives |v| hi = p + err exactly; p is an integer, as S >= 1e16 >
2**53, so S = p + r with r = err + |v| lo, whose rounding errors add up
to less than 4e-15.  The significand d = p + rint(r) is therefore exact
unless r lies within 1e-12 of a half-integer, a rounding tie or nearly
one.  If e was one too small, d >= 1e17; if one too large, d <= 1e16.
So d is taken when 1e16 < d < 1e17, and Python's own `%` formats every
other value: a near-tie, a value whose d comes out as 1e16 (a power of
ten, or a double just below one whose log10 rounds up), one outside
[1e-280, 1e280], and one that is not finite.  The text follows `%g`:
fixed notation for -4 <= e < 17, else d.ddd e+XX with at least two
exponent digits; trailing zeros of the fraction are dropped, and the
point when no fraction is left.

%.2f.  For |v| < 1e7, the value's hundredths n = round(|v| 100), ties to
even, are exact: p = fl(|v| 100) with its exact error err (the same
two-product).  p rounds to n unless p is exactly k + 1/2, where the sign
of err decides and a zero err is a true tie, which rounds to even.  The
sign is that of v, so a negative value that rounds to zero reads -0.00,
as in Python.  Other values are formatted by Python.
"""

import functools

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
# a significand's r may be off by less than 4e-15: a margin far above that
_TIE_MARGIN = 1e-12
_WORD = np.dtype("<u4")  # four text bytes, first byte lowest
# _FIRST[c + 16]: the mask of a word's first c bytes, c clipped to 0..4
_FIRST = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF], _WORD)[np.clip(np.arange(-16, 32), 0, 4)]
_POINT = np.uint32(ord("."))
_MINUS = np.uint32(ord("-"))


@functools.cache
def _power(s):
    """hi, lo and hi's Veltkamp halves, hi + lo the double-double nearest
    10**s: Python's int division rounds correctly."""
    num, den = 10 ** max(s, 0), 10 ** max(-s, 0)
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    t = hi * _SPLIT
    high = t - (t - hi)
    return hi, (num * hi_den - hi_num * den) / (den * hi_den), high, hi - high


@functools.cache
def _quads():
    """The text of 0000 to 9999 as words: in full, with trailing zeros as
    pads, and with leading zeros but the last as pads."""
    q = np.arange(10000, dtype=np.uint16)
    text = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1).astype(np.uint8)
    text += ord("0")
    trailing = np.stack([q == 0, q % 1000 == 0, q % 100 == 0, q % 10 == 0], axis=1)
    leading = np.stack([q < 1000, q < 100, q < 10, np.zeros_like(q, bool)], axis=1)
    return tuple(np.where(pad, np.uint8(0), text).view(_WORD).ravel()
                 for pad in (np.zeros_like(trailing), trailing, leading))


@functools.cache
def _exponents():
    """The "e+XX" text of exponents -400 to 399, one 8-byte word each."""
    e = np.arange(-400, 400)
    magnitude = np.abs(e)
    text = np.zeros((e.size, 8), np.uint8)
    text[:, 0] = ord("e")
    text[:, 1] = np.where(e < 0, ord("-"), ord("+"))
    text[:, 2] = np.where(magnitude >= 100, magnitude // 100 + ord("0"), 0)
    text[:, 3] = magnitude // 10 % 10 + ord("0")
    text[:, 4] = magnitude % 10 + ord("0")
    return text.view("<u8").ravel()


def _first_bytes(count):
    """Masks of a word's first `count` bytes, `count` an int array from
    -16 to 31 that is clipped to 0..4."""
    return _FIRST[count + 16]


def _cells(words, values, fmt, slow):
    """The cells of a list of word columns: the bytes that some row uses
    of each word, side by side, with the `slow` values written over
    their rows by Python's `fmt % value`."""
    n = len(values)
    spans = []
    for word in words:
        used = int(np.bitwise_or.reduce(word))
        if used:
            # from the lowest to the highest byte that some row uses
            spans.append((word.view(np.uint8).reshape(n, -1),
                          ((used & -used).bit_length() - 1) // 8, (used.bit_length() + 7) // 8))
    width = sum(hi - lo for _, lo, hi in spans)
    rows = np.flatnonzero(slow).tolist()
    texts = [(fmt % value).encode() for value in values[rows].tolist()]
    cells = np.zeros((n, max([width, *map(len, texts)])), np.uint8)
    at = 0
    for word, lo, hi in spans:
        cells[:, at:at + hi - lo] = word[:, lo:hi]
        at += hi - lo
    for row, text in zip(rows, texts):
        cells[row] = 0
        cells[row, :len(text)] = np.frombuffer(text, np.uint8)
    return cells


def _significands(v):
    """(d, e, exact): the 17-digit significand d and decimal exponent e of
    each |v|, and whether they are proven (module docstring)."""
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    e0 = int(e.min())
    table = np.array([_power(16 - k) for k in range(e0, int(e.max()) + 1)]).T
    hi, lo, high, low = np.take(table, e - e0, axis=1)
    # |v| hi = p + err, exactly
    p = a * hi
    t = a * _SPLIT
    a_high = t - (t - a)
    a_low = a - a_high
    err = ((a_high * high - p) + a_high * low + a_low * high) + a_low * low
    r = err + a * lo
    k = np.rint(r)
    d = p.astype(np.int64) + k.astype(np.int64)
    return d, e, fast & (np.abs(r - k) < 0.5 - _TIE_MARGIN) & (d > 10 ** 16) & (d < 10 ** 17)


def g17(values):
    """Cells of `"%.17g" % v` for each v of a 1-d float array."""
    v = np.asarray(values, dtype=float)
    if not v.size:
        return np.zeros((0, 0), np.uint8)
    d, e, exact = _significands(v)
    slow = ~exact & (v != 0)
    if not exact.all():
        d[~exact] = 0  # a zero reads "0" and a slow value is overwritten
        e[~exact] = 0

    # d's digits: one, then four groups of four
    top = d // 10 ** 16
    rest = d - top * 10 ** 16
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    g1, g3 = upper // 10 ** 4, lower // 10 ** 4
    groups = (g1, upper - g1 * 10 ** 4, g3, lower - g3 * 10 ** 4)
    zero_after = ((groups[1] == 0) & (lower == 0), lower == 0, groups[3] == 0)
    full, no_trailing, _ = _quads()

    # each digit goes to the integer or the fraction copy; the layout is
    # sign and "0" | integer digits | "." and the zeros of 0.000d |
    # fraction digits | exponent
    fixed = (e >= -4) & (e < 17)
    whole_digits = np.where(fixed, e + 1, 1)
    most = int(whole_digits.max())
    small = fixed & (e < 0)
    # the first digit is the last byte of its word
    first = (top.astype(_WORD) + ord("0")) << 24
    mask = _first_bytes(whole_digits + 3)
    whole, fraction = [first & mask], [first & ~mask]
    for i, g in enumerate(groups):
        digits = np.where(zero_after[i], no_trailing[g], full[g]) if i < 3 else no_trailing[g]
        if most > 1 + 4 * i:
            mask = _first_bytes(whole_digits - 1 - 4 * i)
            whole.append(full[g] & mask)
            digits &= ~mask
        fraction.append(digits)
    point = (fraction[0] | fraction[1] | fraction[2] | fraction[3] | fraction[4]) != 0
    head = np.signbit(v) * _MINUS
    middle = point * _POINT
    if small.any():
        head |= small * np.uint32(ord("0") << 8)
        middle |= _first_bytes(-e * small) & np.uint32(0x30303000)
    words = [head, *whole, middle, *fraction]
    if not fixed.all():
        words.append(np.where(fixed, np.uint64(0), _exponents()[e + 400]))
    return _cells(words, v, "%.17g", slow)


def f2(values):
    """Cells of `"%.2f" % v` for each v of a 1-d float array."""
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    fast = a < 1e7
    a = np.where(fast, a, 0.0)
    # |v| 100 = p + err, exactly
    p = a * 100.0
    t = a * _SPLIT
    a_high = t - (t - a)
    err = (a_high * 100.0 - p) + (a - a_high) * 100.0
    floor = np.floor(p)
    n = np.where((p - floor == 0.5) & (err != 0), floor + (err > 0), np.rint(p)).astype(np.int64)
    whole = n // 100
    upper = whole // 10 ** 4
    lower = whole - upper * 10 ** 4
    full, _, no_leading = _quads()
    tail = full[n - whole * 100] & np.uint32(0xFFFF0000) | _POINT << 8
    words = [np.signbit(v) * _MINUS, np.where(upper > 0, no_leading[upper], 0),
             np.where(upper > 0, full[lower], no_leading[lower]), tail]
    return _cells(words, v, "%.2f", ~fast)


def join(*columns):
    """The bytes of rows laid out from `columns`, each a (n, width) cell
    array or a bytes separator repeated on every row, without the pads."""
    n = next(len(c) for c in columns if not isinstance(c, bytes))
    widths = [len(c) if isinstance(c, bytes) else c.shape[1] for c in columns]
    rows = np.empty((n, sum(widths)), np.uint8)
    at = 0
    for column, width in zip(columns, widths):
        rows[:, at:at + width] = (np.frombuffer(column, np.uint8)
                                  if isinstance(column, bytes) else column)
        at += width
    text = rows.tobytes()
    # both give the same bytes; replace costs about 16 ns a pad and
    # translate 0.8 ns a byte, so replace is the faster below 1 pad in 20
    if rows.size - np.count_nonzero(rows) < rows.size // 20:
        return text.replace(b"\0", b"")
    return text.translate(None, b"\0")
