"""The package's two-column CSV format, and the exact decimal text of
float64 arrays, without a Python call per value, for it and SVG points.

A CSV file is a header line "a,b" and two rows or more of two finite
numbers, each written as Python's "%.17g" text (`write_two_column_csv`)
and read bit for bit as `float` reads it (`parse_two_column_csv`), so a
file read back is bit-exact.  `g17(values)` gives the text of Python's
`"%.17g" % v` and `f2(values)` that of `"%.2f" % v` as word columns,
uint32 arrays that hold four text bytes of every row each (first byte
lowest) with NUL pads anywhere between a row's bytes, and the mask of
the values whose text only Python's `%` gives.
`rows(("%.17g", x), b",", ("%.2f", y), b"\\n")` is the one row layout:
it places the words of each field and separator side by side in a uint32
matrix (`layout`), writes each masked value's `%` text over its own
field, widened where that text is longer, and drops the pads with one
`bytes.translate`, which gives the rows of a CSV file or of an SVG
`points` attribute.  `cells(body)` reads the other way: the float64
value of each cell of a plain CSV body, bit for bit `float(cell)`.

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

%.2f.  For |v| < 9999999.5, whose hundredths have at most 7 integer
digits, so that the sign and the first three share one word, the
hundredths n = round(|v| 100), ties to even, are exact: p = fl(|v| 100)
with its exact error err (the same two-product).  p rounds to n unless p
is exactly k + 1/2, where the sign of err decides and a zero err is a
true tie, which rounds to even.  The sign is that of v, so a negative
value that rounds to zero reads -0.00, as in Python.  Other values are
formatted by Python.

Reading.  A body is plain when it is ASCII rows of two cells, split by
one "," and each ended by a newline, and each cell is
-?digits[.digits][e(+|-)digits]; `cells` returns None for any other
body, which its caller then reads cell by cell.  A cell is d 10**k:
np.fromstring reads its digits without the point as an int64 m, and its
exponent, and k is the exponent less the digits after the point.
np.fromstring silently saturates a number outside int64's range, so d =
|m| is taken only for |m| < 1e18, at most 18 significant digits.  d = 0
is a zero of the cell's sign.  For d <= 2**53 and |k| <= 22, d and
10**|k| are exact doubles, so one multiplication or division rounds
d 10**k once, correctly (Clinger, PLDI 1990).  Otherwise, for
-290 <= k <= 289, where x = d 10**k is normal and below 1e307, d = dh + dl
exactly (dh = fl(d), dl = d - dh in int64) and 10**k = hi + lo + eps with
the double-double above, |eps| < 2**-106 10**k; the two-product gives
dh hi = p + err exactly, and r = err + (dh lo + dl hi + dl lo) differs
from x - p by less than 2**-100 |p|: two products of about 2**-53 |p|,
each rounded to 2**-53 of itself, three sums below 2**-50 |p|, d eps, and
absolute errors below 2**-1074 where a term is subnormal.  With the
margin m = 2**-80 |p|, far above that error and the rounding of r -+ m,
x lies between p + (r - m) and p + (r + m); rounding is monotonic, so
when both round to the same double, x rounds to it.  They differ only
when x lies within about 2**-79 |x| of a midpoint between two doubles,
about 2**-26 ulp: a tie, or a share near 2e-8 of cells with random
digits.  Python's float() reads each cell the kernel does not prove: one
of more than 18 significant digits, one with d != 0 and k outside
[-290, 289] (subnormal, overflowing and the smallest and largest normal
values), and a near-tie.  An exponent cell is computed like any other.
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
    return hi, (num * hi_den - hi_num * den) / (den * hi_den), *_split(hi)


def _split(a):
    """Veltkamp's halves of a, high + low = a exactly, of 26 bits each."""
    t = a * _SPLIT
    high = t - (t - a)
    return high, a - high


def _two_product(a, b, b_high, b_low):
    """Dekker's (p, err), p = fl(a b) and a b = p + err exactly, b in halves."""
    p = a * b
    a_high, a_low = _split(a)
    return p, ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low


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
    """The "e+XX" text of exponent k at k + 400, 8 bytes each; at 0, none."""
    text = b"".join(("e%+03d" % k).encode().ljust(8, b"\0") for k in range(-399, 400))
    return np.frombuffer(bytes(8) + text, "<u8")


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
    p, err = _two_product(a, hi, high, low)
    r = err + a * lo
    k = np.rint(r)
    d = p.astype(np.int64) + k.astype(np.int64)
    return d, e, fast & (np.abs(r - k) < 0.5 - _TIE_MARGIN) & (d > 10 ** 16) & (d < 10 ** 17)


def g17(values):
    """The word columns of `"%.17g" % v` for each v of a 1-d float array,
    and the mask of the values that Python's % formats."""
    v = np.asarray(values, dtype=float)
    if not v.size:
        return [], np.zeros(0, bool)
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

    # each digit goes to the integer or the fraction copy; the words are
    # sign, "0." and an integer first digit | integer digits | "." or 0.000d's
    # zeros, and a fractional first digit | fraction digits | exponent
    fixed = (e >= -4) & (e < 17)
    whole_digits = np.where(fixed, e + 1, 1)
    most = int(whole_digits.max())
    small = fixed & (e < 0)
    # the first digit is the last byte of its word
    first = (top.astype(_WORD) + ord("0")) << 24
    mask = _FIRST[whole_digits + 3 + 16]
    whole, fraction = [first & mask], [first & ~mask]
    for i, g in enumerate(groups):
        digits = np.where(zero_after[i], no_trailing[g], full[g]) if i < 3 else no_trailing[g]
        if most > 1 + 4 * i:
            mask = _FIRST[whole_digits - 1 - 4 * i + 16]
            whole.append(full[g] & mask)
            digits &= ~mask
        fraction.append(digits)
    point = (fraction[0] | fraction[1] | fraction[2] | fraction[3] | fraction[4]) != 0
    whole[0] |= np.signbit(v) * _MINUS
    fraction[0] |= point * _POINT
    if small.any():
        # "0." goes to the first word, and the zeros of 0.000d before d
        whole[0] |= small * np.uint32(ord("0") << 8 | ord(".") << 16)
        fraction[0] ^= small * _POINT
        fraction[0] |= _FIRST[-e * small - 1 + 16] & np.uint32(0x303030)
    # no fraction words where no row has a point: integers
    words = whole + fraction if point.any() else whole
    if not fixed.all():
        exponent = _exponents()[(e + 400) * ~fixed].view(_WORD).reshape(-1, 2)
        # the second word holds only a third digit
        words.append(exponent if exponent[:, 1].any() else exponent[:, 0])
    return words, slow


def f2(values):
    """The word columns of `"%.2f" % v` for each v of a 1-d float array,
    and the mask of the values that Python's % formats."""
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    fast = a < 9999999.5
    a = np.where(fast, a, 0.0)
    p, err = _two_product(a, 100.0, 100.0, 0.0)
    floor = np.floor(p)
    n = np.where((p - floor == 0.5) & (err != 0), floor + (err > 0), np.rint(p)).astype(np.int64)
    whole = n // 100
    upper = whole // 10 ** 4
    lower = whole - upper * 10 ** 4
    full, _, no_leading = _quads()
    tail = full[n - whole * 100] & np.uint32(0xFFFF0000) | _POINT << 8
    head = np.where(upper > 0, no_leading[upper], 0) | np.signbit(v) * _MINUS
    words = [head, np.where(upper > 0, full[lower], no_leading[lower]), tail]
    # without the sign and the first three digits where no row has them
    return words[not head.any():], ~fast


def layout(*columns):
    """The rows laid out from `columns` as a uint32 matrix, one row of
    words per row of text, with NUL pads.  A column is a bytes separator,
    the same on every row, a matrix from `layout`, or a field (format,
    values), "%.17g" or "%.2f": the kernel's words, with the text of each
    value it leaves to Python written over its own row of the field."""
    n = next(len(c) if isinstance(c, np.ndarray) else len(c[1])
             for c in columns if not isinstance(c, bytes))
    pieces, texts = [], []
    for column in columns:
        if isinstance(column, bytes):
            pieces.append(np.frombuffer(column + bytes(-len(column) % 4), _WORD)[None])
        elif isinstance(column, np.ndarray):
            pieces.append(column)
        else:
            fmt, values = column
            words, slow = {"%.17g": g17, "%.2f": f2}[fmt](values)
            start = sum(piece.shape[1] for piece in pieces)
            pieces += [word if word.ndim == 2 else word[:, None] for word in words]
            width = sum(piece.shape[1] for piece in pieces) - start
            if slow.any():
                rows = np.flatnonzero(slow)
                text = [(fmt % value).encode() for value in np.asarray(values)[rows].tolist()]
                # a text longer than the words widens the field
                wider = max(width, *(-(-len(t) // 4) for t in text))
                pieces.append(np.zeros((1, wider - width), _WORD))
                texts.append((rows, start, wider, text))
    matrix = np.empty((n, sum(piece.shape[1] for piece in pieces)), _WORD)
    at = 0
    for piece in pieces:
        matrix[:, at:at + piece.shape[1]] = piece
        at += piece.shape[1]
    for rows, start, width, text in texts:
        padded = b"".join(t.ljust(4 * width, b"\0") for t in text)
        matrix[rows, start:start + width] = np.frombuffer(padded, _WORD).reshape(-1, width)
    return matrix


def rows(*columns):
    """The bytes of the rows laid out from `columns` (`layout`), without
    the pads."""
    return layout(*columns).tobytes().translate(None, b"\0")


# The reader's bytes: a digit is 0, any other byte its kind; an "-" that
# follows an "e" is read as the exponent's sign
_COMMA, _NEWLINE, _EXP, _DOT, _DASH, _SIGN, _OTHER = range(1, 8)
_KIND = np.full(256, _OTHER, np.uint8)
_KIND[np.frombuffer(b",\n.e-+", np.uint8)] = (_COMMA, _NEWLINE, _DOT, _EXP, _DASH, _SIGN)
# _FOLLOWS[8 prev + kind]: 2 where a non-digit byte of `kind` may follow
# one of kind `prev` after one digit or more, 1 where it follows it
# directly, 0 never: -?digits[.digits][e(+|-)digits] between separators
_FOLLOWS = np.zeros((8, 8), np.uint8)
_FOLLOWS[[_COMMA, _NEWLINE, _DASH, _DOT, _SIGN], _COMMA] = 2
_FOLLOWS[[_COMMA, _NEWLINE, _DASH, _DOT, _SIGN], _NEWLINE] = 2
_FOLLOWS[[_COMMA, _NEWLINE, _DASH], _DOT] = 2
_FOLLOWS[[_COMMA, _NEWLINE, _DASH, _DOT], _EXP] = 2
_FOLLOWS[[_COMMA, _NEWLINE], _DASH] = 1
_FOLLOWS[_EXP, _SIGN] = 1
_FOLLOWS = _FOLLOWS.ravel()
# a cell's digits without its point, then its exponent, as int64 fields
_FIELDS = bytes.maketrans(b"e\n", b",,")
# d 10**k with |d| < 1e18 in this range of k is a normal double
_K_RANGE = (-290, 289)
_READ_MARGIN = 2.0 ** -80


def _fields(body):
    """(m, k, negative, separator) of the cells of a plain body: the
    digits of each without its point, as an int64 m, its power of ten k,
    whether it is negative, and the position of the comma or newline
    after it; None if the body is not plain."""
    if not body.endswith(b"\n"):
        return None
    b = np.frombuffer(body, np.uint8)
    at = np.flatnonzero((b - 48) > 9)  # the non-digits
    kind = np.take(_KIND, b[at])
    kind[1:][(kind[1:] == _DASH) & (kind[:-1] == _EXP)] = _SIGN
    prev = np.empty_like(kind)
    prev[0] = _NEWLINE
    prev[1:] = kind[:-1]
    step = np.diff(at, prepend=-1)  # one more than the digits before each
    separated = kind <= _NEWLINE
    separators = np.compress(separated, kind)
    if (not np.array_equal(np.take(_FOLLOWS, prev * 8 + kind), (step > 1) + 1)
            or separators.size % 2
            or not np.all(separators.reshape(-1, 2) == (_COMMA, _NEWLINE))):
        return None
    # the field that ends at each comma, "e" or newline: a cell's digits,
    # or the exponent after a sign
    ints = np.fromstring(body.translate(_FIELDS, b"."), np.int64, sep=",")
    ends = np.flatnonzero(kind <= _EXP)
    digits = np.take(prev, ends) != _SIGN
    end = np.compress(digits, ends)
    pointed = np.take(prev, end) == _DOT
    k = np.where(pointed, 1 - np.take(step, end), 0)
    if end.size < ends.size:
        k[np.take(kind, end) == _EXP] += np.clip(np.compress(~digits, ints), -9999, 9999)
    negative = (kind == _DASH).any() and np.take(kind, end - 1 - pointed) == _DASH
    return np.compress(digits, ints), k, negative, np.compress(separated, at)


def _nearest(d, k):
    """The double nearest d 10**k for each d, 0 <= d < 1e18, and k, and
    whether it is proven (module docstring)."""
    kk = np.clip(k, *_K_RANGE)
    k0 = int(kk.min())
    # _power(k) and 10**-k, exact for -22 <= k <= 0, for each k that occurs
    hi, lo, high, low, inverse = np.array([_power(k) + _power(-k)[:1]
                                           for k in range(k0, int(kk.max()) + 1)]).T
    row = kk - k0
    df = d.astype(float)
    # Clinger's path: d and 10**|k| are exact, and one operation rounds once
    exact = (d <= 2 ** 53) & (np.abs(k) <= 22)
    clinger = np.where(k < 0, df / np.take(inverse, row), df * np.take(hi, row))
    if exact.all():
        return clinger, exact
    hi, lo, high, low = (np.take(column, row) for column in (hi, lo, high, low))
    dl = (d - df.astype(np.int64)).astype(float)
    # (df + dl)(hi + lo), with df hi = p + err
    p, err = _two_product(df, hi, high, low)
    r = err + (df * lo + dl * hi + dl * lo)
    margin = np.abs(p) * _READ_MARGIN
    value = p + (r - margin)
    proven = ((value == p + (r + margin)) & (kk == k)) | (d == 0)
    return np.where(exact, clinger, value), proven | exact


def _read(body):
    """(value, slow, separator): the value of each cell of a plain body
    where `slow` is False, and the position of the comma or newline after
    each; None if the body is not plain."""
    fields = _fields(body)
    if fields is None:
        return None
    m, k, negative, separator = fields
    # np.fromstring saturates a field out of int64's range
    short = (m > -10 ** 18) & (m < 10 ** 18)
    value, proven = _nearest(np.where(short, np.abs(m), 0), k)
    np.negative(value, out=value, where=negative)
    return value, ~(short & proven), separator


def cells(body):
    """The float64 value of each cell of `body`, bytes that hold the rows
    of a plain two-column CSV without its header, in reading order, bit
    for bit `float(cell)`; None if `body` is not plain (module
    docstring)."""
    read = _read(body)
    if read is None:
        return None
    value, slow, separator = read
    for i in np.flatnonzero(slow).tolist():
        value[i] = float(body[separator[i - 1] + 1 if i else 0:separator[i]])
    return value


def parse_two_column_csv(text, header):
    """Parse CSV text whose first line is exactly `header` ("a,b") and
    whose other lines are each two finite numbers; at least two rows.

    Returns the two columns as float arrays.  A body of _READ_ROWS rows
    or more is first given to `cells`, which reads a plain body (module
    docstring) without a Python call per cell.  Any other text is read by
    `_float_cells`: the shape check counts each line's commas, the lines
    are split into one list of cells, and `float` converts them straight
    into one array; only a body with a non-ASCII character or a "_", which
    `float` would misread, is checked cell by cell.  Both paths accept the
    same text and give the same values and messages.  A content error
    names the data row, and a malformed number also the column, of the
    first bad cell in reading order.
    """
    xy = None
    if text.startswith(header + "\n") and text.isascii() and text.count("\n") > _READ_ROWS:
        xy = cells(text[len(header) + 1:].encode())
    if xy is None:
        xy = _float_cells(text, header)
    x, y = xy.reshape(-1, 2).T.copy()  # each column contiguous
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        raise ValueError(f"non-finite value in data row {int(np.argmin(finite)) + 1}")
    return x, y


def _float_cells(text, header):
    """The cells of `parse_two_column_csv`'s text in reading order, each
    read by `float`, after its header and shape checks."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        got = lines[0] if lines else ""
        raise ValueError(f"expected header {header!r}, got {got!r}")
    body = lines[1:]
    # per line, not in total: "1,2,3" and "4" have four cells between them
    commas = list(map(str.count, body, [","] * len(body)))
    if len(body) < 2 or commas.count(1) != len(body):
        raise ValueError("need at least two data rows of two columns")
    joined = ",".join(body)
    texts = joined.split(",")
    unread = iter(texts)
    convert = float if joined.isascii() and "_" not in joined else _plain_float
    try:
        return np.fromiter(map(convert, unread), float, len(texts))
    except ValueError as err:
        # convert stopped at the first bad cell; what it left unread follows it
        i = len(texts) - len(list(unread)) - 1
        column = header.split(",")[i % 2]
        raise ValueError(f"malformed number in data row {i // 2 + 1}, column {column!r}: "
                         f"{err}") from err


def _plain_float(cell):
    """float() of a CSV cell, refusing the "1_000" and non-ASCII digits
    that float() itself takes."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(f"not a plain ASCII number: {cell!r}")
    return float(cell)


# From _READ_ROWS data rows on, parse_two_column_csv tries `cells` first:
# below it the kernel's fixed cost, about 0.15 ms, is not repaid.
# Kernel time over float()'s, one CPU of a 2-core Xeon, median of 150
# alternating parses: rows of 17-digit cells, 25 rows 5.2, 200 rows 1.35,
# 400 rows 0.99, 600 rows 0.70, 3,000 rows 0.55; rows of small integers
# (a decay trace), 200 rows 1.9, 400 rows 1.25, 600 rows 1.02, 800 rows
# 0.82, 3,000 rows 0.55.
_READ_ROWS = 500


# The CSV writer formats and writes blocks of _BLOCK rows, so that the
# kernel's arrays stay small, and a 3,001-row file is one block (one CPU
# of a 2-core Xeon, writes of the paper run's files with a cached x
# column, blocks of 2,048 / 3,072 / 4,096 rows: a 3,001-row spectrum 901 /
# 746 / 750 us, the 30,001-row g2 file 5.3 / 4.7 / 4.4 ms with transient
# peaks of 342 / 495 / 646 kB; batch-synthetic's peak RSS was 0.3 MB
# lower at 3,072 than at 4,096 rows in three pairs).  Below _KERNEL_ROWS
# rows Python's % formats the value column: the kernel's fixed cost per
# call, about 0.08 ms, is then not always repaid (425 integer counts
# 74 us by %, 144 us by the kernel; 425 17-digit values 204 and 137 us).
_BLOCK = 3072
_KERNEL_ROWS = 1000


@functools.lru_cache(maxsize=4)
def _grid_column(grid_bytes):
    """The x column of a float64 grid given as its bytes, formatted once
    by the kernel, so the files of a sweep that share one grid each format
    only their y column: for fewer than _KERNEL_ROWS points the rows'
    text "<x>,%.17g\n", a template for Python's %, else the words of "<x>,"
    of each block of _BLOCK rows.  Four grids are kept, as many as the
    commands write under one config (energy, decay time, saturation
    power, g2 delay).  Keyed by the grid's bytes, so an edited grid never
    gets stale text."""
    grid = np.frombuffer(grid_bytes)
    if grid.size < _KERNEL_ROWS:
        return rows(("%.17g", grid), b",%.17g\n").decode()
    blocks = [layout(("%.17g", grid[i:i + _BLOCK]), b",")
              for i in range(0, grid.size, _BLOCK)]
    # without the word columns that no row uses, such as an integer grid's
    # fraction
    return tuple(words[:, np.bitwise_or.reduce(words, axis=0) != 0] for words in blocks)


def write_two_column_csv(path, header, x, y):
    """Write two finite columns under `header`, each value as Python's
    "%.17g" text, so that parsing the file back is bit-exact.  A
    non-finite value raises ValueError, and no file is written."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"columns must be 1-d of one length, got shapes {x.shape} and {y.shape}")
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        raise ValueError(f"non-finite value in data row {int(np.argmin(finite)) + 1}")
    column = _grid_column(x.tobytes())
    if x.size < _KERNEL_ROWS:
        body = [(column % tuple(y.tolist())).encode()]
    else:
        body = (rows(words, ("%.17g", y[i * _BLOCK:(i + 1) * _BLOCK]), b"\n")
                for i, words in enumerate(column))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(body)
