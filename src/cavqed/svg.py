"""Minimal deterministic SVG line plots.

CSV files are the authoritative outputs of the command-line tools; these
plots are advisory, built from plain polylines with fixed-precision
coordinates so identical data produces identical bytes.

Each polyline is M4-decimated (Jugel et al., PVLDB 7(10), 2014): the
points are split into runs of consecutive points in the same pixel
column, floor of the pixel x; a run of more than 4 points keeps only its
first, last, lowest and highest point, in their original order, and a
run of 4 or fewer keeps every point.  That draws the same line at the
plot's width, with at most 4 points per pixel column.
"""

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 860.0, 520.0
_ML, _MR, _MT, _MB = 70.0, 20.0, 40.0, 50.0


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0:
        span = 1.0
    return out_lo + (np.asarray(values, float) - lo) * (out_hi - out_lo) / span


def _m4_keep(px, py):
    """Boolean mask of the points the M4 rule keeps (module docstring)."""
    column = np.floor(px)
    new_run = np.r_[True, column[1:] != column[:-1]]
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], px.size) - 1
    keep = np.repeat(ends - starts < 4, ends - starts + 1)
    # stable sort by run, then by y: each run's lowest and highest point
    # sit at its first and last sorted slot
    by_y = np.lexsort((py, np.cumsum(new_run)))
    keep[starts] = keep[ends] = keep[by_y[starts]] = keep[by_y[ends]] = True
    return keep


def _points_attr(px, py):
    """The `points` attribute "x,y x,y ..." at 2 decimals, formatted in
    one % operation."""
    return (("%.2f,%.2f " * px.size) % tuple(np.column_stack((px, py)).ravel().tolist()))[:-1]


def write_line_svg(path, x, series, title="", x_label="", y_label="", log_y=False):
    """Write one SVG with a polyline for each item of `series`: a
    (label, y) drawn on the shared `x`, or a (label, x, y) on its own x.
    The x axis spans the x of every item."""
    shared = np.asarray(x, dtype=float)
    curves = []
    for label, *xy in series:
        cx, y = (shared, *xy) if len(xy) == 1 else xy
        curves.append((label, np.asarray(cx, dtype=float), np.asarray(y, dtype=float)))
    if not curves or any(cx.ndim != 1 or y.shape != cx.shape for _, cx, y in curves):
        raise ValueError("series must be nonempty and each match its x grid")

    stacked = np.concatenate([y for _, _, y in curves])
    if log_y:
        positive = stacked[stacked > 0]
        floor = positive.min() if positive.size else 1.0
        stacked = np.log10(np.maximum(stacked, floor))
        curves = [(label, cx, np.log10(np.maximum(y, floor))) for label, cx, y in curves]
    y_lo, y_hi = float(stacked.min()), float(stacked.max())
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo = min(float(cx.min()) for _, cx, _ in curves)
    x_hi = max(float(cx.max()) for _, cx, _ in curves)

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
    for tick in np.linspace(x_lo, x_hi, 5):
        px = float(_scale(tick, x_lo, x_hi, _ML, _W - _MR))
        lines.append(f'<text x="{px:.1f}" y="{_H - _MB + 18:.1f}" text-anchor="middle" '
                     f'font-size="11">{tick:.6g}</text>')
    for tick in np.linspace(y_lo, y_hi, 5):
        py = float(_scale(tick, y_lo, y_hi, _H - _MB, _MT))
        label = f"1e{tick:.2f}" if log_y else f"{tick:.6g}"
        lines.append(f'<text x="{_ML - 6:.1f}" y="{py + 4:.1f}" text-anchor="end" '
                     f'font-size="11">{label}</text>')

    for i, (label, cx, y) in enumerate(curves):
        px = _scale(cx, x_lo, x_hi, _ML, _W - _MR)
        py = _scale(y, y_lo, y_hi, _H - _MB, _MT)
        keep = _m4_keep(px, py)
        points = _points_attr(px[keep], py[keep])
        color = _COLORS[i % len(_COLORS)]
        lines.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        lines.append(f'<text x="{_W - _MR - 8:.1f}" y="{_MT + 16 * (i + 1):.1f}" '
                     f'text-anchor="end" font-size="12" fill="{color}">{label}</text>')

    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
