import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cavqed import numtext, svg
from cavqed.cli import EXIT_OK, main


def polyline_points(path):
    """The (x, y) pairs of each polyline of an SVG file, as strings."""
    root = ET.parse(path).getroot()
    return [[tuple(pair.split(",")) for pair in el.get("points").split(" ")]
            for el in root.iter() if el.tag.endswith("polyline")]


def old_points_attr(px, py):
    """The per-point formatting the writer used before M4 decimation."""
    return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))


def test_g2_plot_keeps_first_last_min_max_of_each_column(tmp_path):
    out = tmp_path / "g2"
    assert main(["g2", "--fixture", "paper", "--out", str(out)]) == EXIT_OK
    [kept] = polyline_points(out / "g2.svg")
    assert len(kept) <= 3100

    # the undecimated pixel points, as write_line_svg scales them
    tau, g2 = numtext.parse_two_column_csv((out / "g2.csv").read_text(), "tau_ps,g2")
    px = svg._scale(tau, tau.min(), tau.max(), svg._ML, svg._W - svg._MR)
    py = svg._scale(g2, g2.min(), g2.max(), svg._H - svg._MB, svg._MT)
    full = [(f"{a:.2f}", f"{b:.2f}") for a, b in zip(px, py)]

    # pixel x grows by more than 0.01 per point, so its string names the point
    index = {x: i for i, (x, _) in enumerate(full)}
    assert len(index) == len(full)
    kept_idx = np.array([index[x] for x, _ in kept])
    assert np.all(np.diff(kept_idx) > 0)
    assert [full[i] for i in kept_idx] == kept

    column = np.floor(px)
    assert kept[0] == full[0] and kept[-1] == full[-1]
    for c in np.unique(column):
        members = np.flatnonzero(column == c)
        mine = kept_idx[column[kept_idx] == c]
        assert 1 <= mine.size <= 4
        assert mine[0] == members[0] and mine[-1] == members[-1]
        ys = [float(full[i][1]) for i in members]
        kept_ys = [float(full[i][1]) for i in mine]
        assert (min(kept_ys), max(kept_ys)) == (min(ys), max(ys))


@pytest.mark.parametrize("n", [2, 5, 700, 3000])
def test_at_most_four_points_per_column_are_all_kept(tmp_path, n):
    # 3000 points over 770 pixels: 3 or 4 in every column
    x = np.linspace(-5.0, 5.0, n)
    y = np.sin(7.0 * x) - 1e-3
    svg.write_line_svg(tmp_path / "p.svg", x, [("a", y), ("b", -y)])
    px = svg._scale(x, x[0], x[-1], svg._ML, svg._W - svg._MR)
    assert np.max(np.unique(np.floor(px), return_counts=True)[1]) <= 4
    lo, hi = float(min(y.min(), -y.max())), float(max(y.max(), -y.min()))
    for got, values in zip(polyline_points(tmp_path / "p.svg"), (y, -y)):
        py = svg._scale(values, lo, hi, svg._H - svg._MB, svg._MT)
        assert " ".join(",".join(pair) for pair in got) == old_points_attr(px, py)


def test_points_attr_matches_per_point_formatting():
    px = np.array([-0.004, -0.0, 0.0, 0.005, 1.125, -3.999, 1e6, 70.0])
    py = np.array([0.001, -0.001, -0.0049, 2.675, -2.675, 0.0, -1e-9, 469.995])
    got = svg._points_attr(px, py)
    assert got == old_points_attr(px, py)
    assert got.startswith("-0.00,0.00 -0.00,-0.00 0.00,-0.00 ")
    assert svg._points_attr(px[:1], py[:1]) == "-0.00,0.00"


def test_decimation_needs_no_sorted_x():
    # a run is consecutive points in one column, wherever x goes next
    px = np.array([10.1, 10.2, 10.3, 10.4, 10.5, 3.0, 10.6, 10.7])
    py = np.array([5.0, 9.0, 1.0, 4.0, 6.0, 0.0, 2.0, 2.0])
    keep = svg._m4_keep(px, py)
    assert keep.tolist() == [True, True, True, False, True, True, True, True]


def lexsort_m4_keep(px, py):
    """The M4 rule by one stable sort of the points by run, then by y: the
    oracle for svg._m4_keep."""
    column = np.floor(px)
    new_run = np.r_[True, column[1:] != column[:-1]]
    starts = np.flatnonzero(new_run)
    ends = np.append(starts[1:], px.size) - 1
    keep = np.repeat(ends - starts < 4, ends - starts + 1)
    by_y = np.lexsort((py, np.cumsum(new_run)))
    keep[starts] = keep[ends] = keep[by_y[starts]] = keep[by_y[ends]] = True
    return keep


@pytest.mark.parametrize("seed", range(10))
def test_decimation_keeps_what_the_lexsort_rule_keeps(seed):
    # runs of 1 to 40 points in random columns, so x is unsorted, with
    # tied y (-0.0 among them) in half the cases; some plots have no run
    # of more than 4 points
    rng = np.random.default_rng(seed)
    for case in range(100):
        sizes = rng.integers(1, rng.choice([5, 41]), rng.integers(1, 30))
        columns = np.repeat(rng.integers(0, 12, sizes.size), sizes)
        px = columns + rng.uniform(0, 1, sizes.sum())
        py = (rng.choice([-1.0, -0.0, 0.0, 2.5], sizes.sum()) if case % 2
              else rng.normal(size=sizes.sum()))
        assert svg._m4_keep(px, py).tolist() == lexsort_m4_keep(px, py).tolist(), case


def on_both_branches(monkeypatch, tmp_path, x, series, **labels):
    """What write_line_svg gives for one plot on its pure-Python branch,
    where taking the numpy branch would fail, and on its numpy branch: the
    file's bytes, or the ValueError raised."""
    results = []
    for name, replacement in (("_numpy_curves", None), ("_short", lambda values: None)):
        with monkeypatch.context() as patch:
            patch.setattr(svg, name, replacement)
            path = tmp_path / f"{name}.svg"
            try:
                svg.write_line_svg(path, x, series, **labels)
                results.append(path.read_bytes())
            except ValueError as err:
                results.append(repr(err))
    return results


@pytest.mark.parametrize("x, series, labels", [
    ([6, 7, 8, 9], [("fixture", [2.49, 2.86, 3.53, 4.23]),
                    ("Gaussian", [2.8597, 3.2127, 3.5412, 3.8473])],
     {"title": "Mode volume", "x_label": "p"}),
    ([1.0, 2.0], [("shared", (1.0, -2.0)), ("own", [4.0, -3.0, 0.5], (0.75, 0.25, 0.5))], {}),
    ([1.0, 2.0, 3.0], [("flat", [5.0, 5.0, 5.0])], {}),
    ([7], [("one", [0.125])], {}),
], ids=["integer-x", "own-x", "flat", "single-point"])
def test_short_plots_are_the_same_bytes_on_both_branches(monkeypatch, tmp_path, x, series,
                                                        labels):
    python, numpy_ = on_both_branches(monkeypatch, tmp_path, x, series, **labels)
    assert isinstance(python, bytes)
    assert python == numpy_


def test_short_log_y_plot_takes_the_numpy_branch(monkeypatch, tmp_path):
    # a log y axis takes the numpy branch, also for a plot short enough for
    # the pure one
    monkeypatch.setattr(svg, "_python_curves", None)
    path = tmp_path / "log.svg"
    svg.write_line_svg(path, [0.5, 1.0, 2.0, 4.0], [("counts", [0.0, 12.5, 3e4, 7.0])],
                       log_y=True)
    assert polyline_points(path) == [[("70.00", "470.00"), ("180.00", "440.19"),
                                      ("400.00", "40.00"), ("840.00", "470.00")]]
    labels = [el.text for el in ET.parse(path).getroot() if el.get("text-anchor") == "end"]
    assert labels == ["1e0.85", "1e1.75", "1e2.66", "1e3.57", "1e4.48", "counts"]


@pytest.mark.parametrize("x, series", [
    ([1.0, 2.0, 3.0], [("short y", [1.0, 2.0])]),
    ([], [("empty", [])]),
], ids=["mismatch", "empty-curve"])
def test_invalid_short_series_raise_alike_on_both_branches(monkeypatch, tmp_path, x, series):
    python, numpy_ = on_both_branches(monkeypatch, tmp_path, x, series)
    assert python == numpy_ == repr(ValueError(svg._BAD_SERIES))


@pytest.mark.parametrize("x, series", [
    ([-1.7976931348623157e308, 1.7976931348623157e308], [("x span", [1.0, 2.0])]),
    ([6, 7], [("y span", [2.49, 1.7976931348623157e308]), ("small", [2.86, 3.21])]),
    ([6, 7], [("y step", [-1.7976931348623157e308, 1.7976931348623157e308])]),
], ids=["x-span-overflows", "y-span-overflows", "y-tick-step-overflows"])
def test_finite_values_draw_finite_points_alike_on_both_branches(monkeypatch, tmp_path, x,
                                                                 series):
    python, numpy_ = on_both_branches(monkeypatch, tmp_path, x, series)
    assert python == numpy_
    for curve in polyline_points(tmp_path / "_numpy_curves.svg"):
        assert all(np.isfinite(float(v)) for point in curve for v in point)
    # and the ticks, also where the step (hi - lo)/4 overflows
    ticks = [el for el in ET.parse(tmp_path / "_numpy_curves.svg").getroot()
             if el.get("font-size") == "11"]
    assert len(ticks) == 10
    assert all(np.isfinite(float(v)) for el in ticks for v in (el.get("x"), el.get("y"), el.text))


def test_non_finite_value_raises_and_writes_no_file(tmp_path):
    y = np.linspace(0.0, 1.0, 300)
    y[7] = np.nan
    with pytest.raises(ValueError, match=svg._NON_FINITE):
        svg.write_line_svg(tmp_path / "nan.svg", np.arange(300.0), [("y", y)])
    assert not (tmp_path / "nan.svg").exists()



@pytest.mark.parametrize("x", [[0, 1], np.arange(300.0)], ids=["pure", "numpy"])
def test_title_and_labels_read_back_as_given(tmp_path, x):
    # XML's markup characters, an entity's text and a non-ASCII character
    # in every text the writer takes, on both branches
    labels = {"title": "a & b <c>", "x_label": "x < 1 & y > 2", "y_label": "&amp; (µeV)"}
    y = np.linspace(1.0, 2.0, len(x)).tolist()
    path = tmp_path / "text.svg"
    svg.write_line_svg(path, x, [("<&>", y), ("a&b", y[::-1])], **labels)
    texts = [el.text for el in ET.parse(path).getroot().iter() if el.tag.endswith("text")]
    assert texts[:3] == [labels["title"], labels["x_label"], labels["y_label"]]
    assert texts[-2:] == ["<&>", "a&b"]
