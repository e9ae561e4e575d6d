"""Minimal deterministic SVG line plots.

CSV files are the authoritative outputs of the command-line tools; these
plots are advisory, built from plain polylines with fixed-precision
coordinates so identical data produces identical bytes.

Each polyline is M4-decimated (Jugel et al., PVLDB 7(10), 2014): the
points are split into runs of consecutive points in the same pixel
column, floor of the pixel x; a run of more than 4 points keeps only its
first, last, lowest (the first at a tie) and highest (the last at a tie)
point, in their original order, and a run of 4 or fewer keeps every
point.  That draws the same line at the plot's width, with at most 4
points per pixel column.  It takes linear time, a minimum and a maximum
per run, and needs finite points: a curve with a value that is not
finite raises ValueError before it is decimated, and every finite value
is drawn at a finite point.

A plot without a log y axis whose every x and y is a list or tuple of at
most 4 finite numbers, which M4 keeps whole, is drawn in pure Python, so
`pl purcell` loads no numpy; any other plot imports numpy to scale and
decimate its curves.  The pure branch repeats numpy's float operations
in numpy's order, so both write the same bytes.  The frame, the ticks,
the escaped text and the UTF-8 file write are shared.

Every coordinate is Python's "%.2f" text.  A curve of _KERNEL_POINTS or
more points after decimation is laid out by cavqed.numtext's one row
routine, which writes the same bytes without a Python call per point; a
shorter one, and every curve of the pure branch, by one % operation.
"""

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 860.0, 520.0
_ML, _MR, _MT, _MB = 70.0, 20.0, 40.0, 50.0
_BAD_SERIES = "series must be nonempty and each match its x grid"
_NON_FINITE = "a plotted point is not finite"
# below this many points Python's % formats a curve's points faster than
# the numtext kernel, whose fixed cost per curve is about 0.07 ms (100
# points: 40 us by %, 84 to 105 us by the kernel; 250 points: 100 and
# 90 us)
_KERNEL_POINTS = 250


def _scale(values, lo, hi, out_lo, out_hi):
    """A float or a numpy array mapped from [lo, hi] onto [out_lo, out_hi].
    Where the span times the output range overflows, values and bounds
    are first scaled by 2**-12, exactly but for subnormals, so that every
    finite value maps to a finite point."""
    span = hi - lo
    if span <= 0:
        span = 1.0
    if abs(span * (out_hi - out_lo)) == math.inf:
        values, lo, span = values * 2.0 ** -12, lo * 2.0 ** -12, hi * 2.0 ** -12 - lo * 2.0 ** -12
    return out_lo + (values - lo) * (out_hi - out_lo) / span


def _ticks(lo, hi):
    """np.linspace(lo, hi, 5) by numpy's operations: i * step + lo, or
    (i / 4) * delta + lo where the step underflows to 0, and hi last.
    Where the step overflows, the ticks are those of the bounds scaled
    by 2**-12, as _scale scales them, scaled back."""
    delta = hi - lo
    step = delta / 4
    if step == math.inf:
        return [tick * 2.0 ** 12 for tick in _ticks(lo * 2.0 ** -12, hi * 2.0 ** -12)[:4]] + [hi]
    if step == 0:
        return [(i / 4) * delta + lo for i in range(4)] + [hi]
    return [i * step + lo for i in range(4)] + [hi]


def _m4_keep(px, py):
    """Boolean mask of the points the M4 rule keeps (module docstring),
    the points finite."""
    import numpy as np

    column = np.floor(px)
    new_run = np.r_[True, column[1:] != column[:-1]]
    starts = np.flatnonzero(new_run)
    sizes = np.diff(np.append(starts, px.size))
    if sizes.max() <= 4:
        return np.ones(px.size, bool)
    keep = np.repeat(sizes <= 4, sizes)
    keep[starts] = keep[starts + sizes - 1] = True
    run = np.cumsum(new_run) - 1
    # each run's lowest point, the first at a tie, and its highest, the last
    lowest = np.flatnonzero(py == np.minimum.reduceat(py, starts)[run])
    highest = np.flatnonzero(py == np.maximum.reduceat(py, starts)[run])
    keep[lowest[np.r_[True, run[lowest[1:]] != run[lowest[:-1]]]]] = True
    keep[highest[np.r_[run[highest[1:]] != run[highest[:-1]], True]]] = True
    return keep


def _points_attr(px, py):
    """The `points` attribute "x,y x,y ..." at 2 decimals, formatted in
    one % operation."""
    flat = [0.0] * (2 * len(px))
    flat[::2], flat[1::2] = px, py
    return (("%.2f,%.2f " * len(px)) % tuple(flat))[:-1]


def _escaped(text):
    """`text` as XML character data, which reads back as `text`."""
    return str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _short(values):
    """`values` as a list of floats if it is a list or tuple of at most 4
    finite numbers, else None."""
    if isinstance(values, (list, tuple)) and len(values) <= 4 and all(
            isinstance(v, (int, float)) for v in values):
        floats = [float(v) for v in values]
        if all(map(math.isfinite, floats)):
            return floats
    return None


def _python_curves(curves):
    """The curves, given as lists of floats, and their extremes (x_lo,
    x_hi, y_lo, y_hi), as _numpy_curves computes them on a linear y axis."""
    if not curves or any(not cx or len(y) != len(cx) for _, cx, y in curves):
        raise ValueError(_BAD_SERIES)
    # of equal values (0.0 and -0.0), numpy's min and max of up to 8 keep
    # the last and Python's the first, so these read the values reversed
    stacked = [v for _, _, y in reversed(curves) for v in reversed(y)]
    return curves, (min(min(reversed(cx)) for _, cx, _ in curves),
                    max(max(reversed(cx)) for _, cx, _ in curves),
                    min(stacked), max(stacked))


def _python_points(cx, y, x_lo, x_hi, y_lo, y_hi):
    """A curve's `points` text, every point kept; the values are finite,
    and so are the points."""
    return _points_attr([_scale(v, x_lo, x_hi, _ML, _W - _MR) for v in cx],
                        [_scale(v, y_lo, y_hi, _H - _MB, _MT) for v in y])


def _numpy_curves(items, log_y):
    """The (label, x, y) items as float arrays with y on the plotted scale,
    and their extremes (x_lo, x_hi, y_lo, y_hi)."""
    import numpy as np

    curves = [(label, np.asarray(cx, dtype=float), np.asarray(y, dtype=float))
              for label, cx, y in items]
    if any(cx.ndim != 1 or y.shape != cx.shape or not cx.size for _, cx, y in curves):
        raise ValueError(_BAD_SERIES)
    stacked = np.concatenate([y for _, _, y in curves])
    if log_y:
        positive = stacked[stacked > 0]
        floor = positive.min() if positive.size else 1.0
        stacked = np.log10(np.maximum(stacked, floor))
        curves = [(label, cx, np.log10(np.maximum(y, floor))) for label, cx, y in curves]
    return curves, (min(float(cx.min()) for _, cx, _ in curves),
                    max(float(cx.max()) for _, cx, _ in curves),
                    float(stacked.min()), float(stacked.max()))


def _numpy_points(cx, y, x_lo, x_hi, y_lo, y_hi):
    """A curve's `points` text, M4-decimated, by the numtext kernel from
    _KERNEL_POINTS points on."""
    import numpy as np

    px = _scale(cx, x_lo, x_hi, _ML, _W - _MR)
    py = _scale(y, y_lo, y_hi, _H - _MB, _MT)
    if not (np.isfinite(px).all() and np.isfinite(py).all()):
        raise ValueError(_NON_FINITE)
    keep = _m4_keep(px, py)
    px, py = px[keep], py[keep]
    if px.size < _KERNEL_POINTS:
        return _points_attr(px.tolist(), py.tolist())
    from . import numtext

    return numtext.rows(("%.2f", px), b",", ("%.2f", py), b" ")[:-1].decode()


def write_line_svg(path, x, series, title="", x_label="", y_label="", log_y=False):
    """Write one SVG with a polyline for each item of `series`: a
    (label, y) drawn on the shared `x`, or a (label, x, y) on its own x.
    The x axis spans the x of every item."""
    items = [(label, *((x, *xy) if len(xy) == 1 else xy)) for label, *xy in series]
    short = [(label, _short(cx), _short(y)) for label, cx, y in items]
    if not log_y and all(cx is not None and y is not None for _, cx, y in short):
        curves, bounds = _python_curves(short)
        points = _python_points
    else:
        curves, bounds = _numpy_curves(items, log_y)
        points = _numpy_points
    x_lo, x_hi, y_lo, y_hi = bounds
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    title, x_label, y_label = map(_escaped, (title, x_label, y_label))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" height="{_H:.0f}" '
        f'viewBox="0 0 {_W:.0f} {_H:.0f}">',
        f'<rect width="{_W:.0f}" height="{_H:.0f}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-size="16">{title}</text>',
        f'<line x1="{_ML:.1f}" y1="{_H - _MB:.1f}" x2="{_W - _MR:.1f}" y2="{_H - _MB:.1f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML:.1f}" y1="{_MT:.1f}" x2="{_ML:.1f}" y2="{_H - _MB:.1f}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{_W / 2:.1f}" y="{_H - 12:.1f}" text-anchor="middle" font-size="13">{x_label}</text>',
        f'<text x="18" y="{_H / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {_H / 2:.1f})">{y_label}</text>',
    ]
    for tick in _ticks(x_lo, x_hi):
        px = _scale(tick, x_lo, x_hi, _ML, _W - _MR)
        lines.append(f'<text x="{px:.1f}" y="{_H - _MB + 18:.1f}" text-anchor="middle" '
                     f'font-size="11">{tick:.6g}</text>')
    for tick in _ticks(y_lo, y_hi):
        py = _scale(tick, y_lo, y_hi, _H - _MB, _MT)
        label = f"1e{tick:.2f}" if log_y else f"{tick:.6g}"
        lines.append(f'<text x="{_ML - 6:.1f}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{label}</text>')

    for i, (label, cx, y) in enumerate(curves):
        color = _COLORS[i % len(_COLORS)]
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points(cx, y, x_lo, x_hi, y_lo, y_hi)}"/>')
        lines.append(f'<text x="{_W - _MR - 8:.1f}" y="{_MT + 16 * (i + 1):.1f}" '
                     f'text-anchor="end" font-size="12" fill="{color}">{_escaped(label)}</text>')

    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
