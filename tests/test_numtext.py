"""The numtext kernel against Python's own %, and its reader against
float(): every byte of every case."""

import decimal
import fractions
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from cavqed import numtext


def _around(values):
    """The values and both neighbouring doubles of each."""
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def _random_bits(seed, n):
    return np.random.default_rng(seed).integers(0, 2 ** 64, n, dtype=np.uint64).view(np.float64)


_TEN = np.array([float(f"1e{k}") for k in range(-300, 301)])
_INTEGERS = np.concatenate([
    np.random.default_rng(2).integers(0, 2 ** 63, 5000).astype(float) * 2.0,
    _around(2.0 ** np.arange(65)), _around(10.0 ** np.arange(20)), np.arange(-1000.0, 1001.0)])
_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, np.nan, np.inf, -np.inf]

G17_CASES = {
    "random-bits": _random_bits(1, 60000),
    "specials": np.array(_SPECIALS),
    "powers-of-ten-and-neighbours": _around(np.concatenate([_TEN, -_TEN])),
    "integers-to-2**64": np.concatenate([_INTEGERS, -_INTEGERS]),
    # the kernel's own edges: its exponent range, a digit that is a tie
    # (1e15 + k/4 has 18 digits, its last a 5 or 0), and %g's switch
    # from fixed to exponent notation
    "kernel-edges": np.concatenate([
        _around([1e-280, 1e280, 1e-4, 1e17]), 1e15 + np.arange(400) / 4.0,
        np.random.default_rng(3).uniform(0, 1, 2080) * 10.0 ** np.arange(-6, 20).repeat(80)]),
}

_CENTS = np.arange(-200000, 200000) / 100.0
F2_CASES = {
    "ties-and-near-ties": np.array([0.125, 2.675, -0.004, 70.005, 469.995, 1e6, 0.005, -0.005,
                                    0.375, -0.625, 1.005, 1.015, 999999.995, -0.0, 0.0]),
    # k + 1/8 multiples are exact binary ties at the third decimal;
    # x.xx5 written in decimal lies just off one
    "eighths-and-half-cents": np.concatenate([np.arange(-8000, 8000) / 8.0,
                                              _CENTS + 0.005, _around(_CENTS[::50] + 0.005)]),
    "random-bits": _random_bits(4, 3000),
    "random-magnitudes": np.random.default_rng(6).choice([-1.0, 1.0], 30000)
    * np.random.default_rng(7).uniform(0, 1, 30000) * 10.0 ** np.arange(-12, 8).repeat(1500),
    "specials": np.array(_SPECIALS),
    "kernel-edges": _around([1e7, -1e7, 9999999.995, 5e-3, 1e-300]),
    "pixels": np.random.default_rng(5).uniform(-20.0, 880.0, 20000),
}


@pytest.mark.parametrize("values", G17_CASES.values(), ids=G17_CASES.keys())
def test_g17_is_pythons_percent_17g(values):
    got = numtext.rows(("%.17g", values), b"\n").decode()
    assert got == "".join("%.17g\n" % v for v in values.tolist())


@pytest.mark.parametrize("values", F2_CASES.values(), ids=F2_CASES.keys())
def test_f2_is_pythons_percent_2f(values):
    got = numtext.rows(("%.2f", values), b"\n").decode()
    assert got == "".join("%.2f\n" % v for v in values.tolist())


def test_join_lays_out_columns_and_separators():
    x, y = np.array([-0.0, 1e300, 0.1]), np.array([1e-300, -2.5, 7.0])
    assert numtext.rows(("%.17g", x), b",", ("%.2f", y), b";\n") == (
        b"-0,0.00;\n1.0000000000000001e+300,-2.50;\n0.10000000000000001,7.00;\n")


def test_slow_text_widens_its_field_and_laid_out_rows_nest():
    # Python's text of 1e16 and 1e7 is longer than the small values' words;
    # a matrix from layout is a column of a later row layout
    x, y = np.array([3.0, 1e16, -0.0, 7.0]), np.array([0.25, -1e7, 1e300, 5.0])
    first = numtext.layout(("%.17g", x), b",")
    assert numtext.rows(first, ("%.2f", y), b"\n") == "".join(
        "%.17g,%.2f\n" % pair for pair in zip(x.tolist(), y.tolist())).encode()


def _g17_range(a):
    return (a == 0) | ((a >= 1e-280) & (a <= 1e280))


def _f2_range(a):
    return a < 9999999.5


@pytest.mark.parametrize("kernel, in_range, values, most", [
    # ties exist where the 17th digit has fraction bits: 1e13 <= |v| < 1e16
    (numtext.g17, _g17_range, G17_CASES["random-bits"], 0.002),
    (numtext.g17, _g17_range, G17_CASES["integers-to-2**64"], 0.01),
    (numtext.f2, _f2_range, F2_CASES["random-magnitudes"], 0.0),
    (numtext.f2, _f2_range, F2_CASES["pixels"], 0.0),
], ids=["g17-random-bits", "g17-integers", "f2-random-magnitudes", "f2-pixels"])
def test_python_formats_only_what_the_kernel_cannot_prove(kernel, in_range, values, most):
    # every value outside the kernel's range goes to Python, and at most
    # a share `most` of those inside it: the ties and decade boundaries
    _, slow = kernel(values)
    inside = in_range(np.abs(values))
    assert np.all(slow | inside)
    assert np.count_nonzero(slow & inside) <= most * values.size


# The reader: numtext.cells against float() of each cell, by bytes, on
# bodies above parse_two_column_csv's row threshold.

def _read(texts):
    """The cells that numtext.cells leaves to float(), of `texts` laid out
    two to a row, repeated to a body of numtext._READ_ROWS rows or more;
    each value must be float()'s, bit for bit."""
    texts = list(texts)
    cells = texts * -(-2 * numtext._READ_ROWS // len(texts))
    cells += cells[:len(cells) % 2]
    body = "".join(map("{},{}\n".format, cells[::2], cells[1::2])).encode()
    got = numtext.cells(body)
    assert got is not None and got.tobytes() == np.array([float(c) for c in cells]).tobytes()
    _, slow, _ = numtext._read(body)
    return {cell for cell, left in zip(cells, slow.tolist()) if left}


def _exact(fraction):
    """The exact decimal text of a fraction whose denominator is a power
    of two."""
    with decimal.localcontext(decimal.Context(prec=2000)):
        return format(decimal.Decimal(fraction.numerator) / fraction.denominator, "f")


_FINITE = _random_bits(9, 30000)
_FINITE = _FINITE[np.isfinite(_FINITE)].tolist()
RANDOM_TEXTS = {"%.17g": ["%.17g" % v for v in _FINITE], "repr": [repr(v) for v in _FINITE],
                "%.6g": ["%.6g" % v for v in _FINITE]}

_DIGITS = "12345678901234567890"
EDGE_CELLS = {
    "zeros-and-leading-zeros": ["0", "-0", "0.0", "-0.0", "000", "-000.000", "0e+00", "-0e-05",
                                "0e+999999", "007", "-0007.25", "0000.5", "0.000123456789",
                                "0000000000000000000000000001.5", "0.00000000000000000000000001"],
    "2**53-and-neighbours": [str(2 ** 53 + i) for i in range(-2, 3)]
    + [f"-{2 ** 53 + 1}", f"{2 ** 53 + 1}.0", f"{2 ** 53 - 1}e+05", f"{2 ** 52 + 1}.5"],
    # up to 18 digits fit int64 whatever they are; 19 and 20 may not
    "17-to-20-digits": [cell for n in (17, 18, 19, 20) for cell in (
        _DIGITS[:n], f"-{_DIGITS[:n]}", f"1.{_DIGITS[1:n]}", f"0.{_DIGITS[:n]}e-5")]
    + ["999999999999999999", "1000000000000000000", "9223372036854775807",
       "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
       "99999999999999999999", "18446744073709551616"],
    "exponents": ["1e-05", "2.5e-05", "-3.0000000000000004e-05", "1e+300",
                  "1.7976931348623157e+308", "-1.7976931348623157e+308", "2.2250738585072014e-308",
                  "4.9406564584124654e-324", "1e-320", "-2.5e-320", "1e+22", "1e+23", "1e-22",
                  "9007199254740993e-22", "1e-275", "1.2345678901234567e-275", "1e+289",
                  "1.2345678901234567e+289", "1e+00000005", "1e-0000000000000000000005",
                  "1e+99999999999999999999", "1e-99999999999999999999"],
}


@pytest.mark.parametrize("texts", RANDOM_TEXTS.values(), ids=RANDOM_TEXTS.keys())
def test_cells_are_float_of_random_doubles(texts):
    # within the kernel's normal range every such cell is proven (this
    # seed draws no near-tie): Python reads only the cells outside it
    assert all(not 1e-270 <= abs(float(cell)) <= 1e290 for cell in _read(texts))


@pytest.mark.parametrize("cells", EDGE_CELLS.values(), ids=EDGE_CELLS.keys())
def test_cells_are_float_of_edge_cells(cells):
    _read(cells)


# cells that float() may take but numtext.cells must not, and rows that
# are not two cells ended by a newline: each makes a body not plain
NOT_PLAIN_CELLS = ["1.2.3", "1e+5e+3", "1e+5.5", "1-2", "--1", "2.-5", "-.5", ".5", "5.", "1.e5",
                   "1e+", "e+5", "-", "1e5", "1E+5", "1e+-5", "+1", " 1", "1 ", "1_0", "nan",
                   "inf", "0x10", "", "\u0663"]
NOT_PLAIN_ROWS = ["1,2,3\n", "1\n", "1,2", "1,2\r\n", "\n", "1;2\n", "1,2\n\n", ",\n"]


@pytest.mark.parametrize("cell", NOT_PLAIN_CELLS)
def test_a_cell_that_is_not_plain_leaves_the_body_to_float(cell):
    rows = "1,2\n" * 3
    for body in (f"{cell},2\n{rows}", f"{rows}1,{cell}\n"):
        assert numtext.cells(body.encode()) is None


@pytest.mark.parametrize("row", NOT_PLAIN_ROWS)
def test_a_row_that_is_not_plain_leaves_the_body_to_float(row):
    rows = "1,2\n" * 3
    for body in (row + rows, rows + row):
        assert numtext.cells(body.encode()) is None


# midpoints between adjacent doubles: (2**53 + j) 2**q for odd j, of up
# to 19 digits, which only the tie margin sends to Python up to 18, and
# those of random doubles, of many digits
_SHORT_MIDPOINTS = [_exact(fractions.Fraction(2 ** 53 + j) * fractions.Fraction(2) ** q)
                    for j in (1, 3, 5, 999) for q in range(-3, 4)]


def test_midpoints_between_doubles_are_left_to_float():
    random = np.random.default_rng(10).uniform(0, 1, 300) * 10.0 ** np.arange(-12, 18).repeat(10)
    midpoints = _SHORT_MIDPOINTS + [
        _exact((fractions.Fraction(v) + fractions.Fraction(math.nextafter(v, math.inf))) / 2)
        for v in random.tolist()]
    assert _read(midpoints) == set(midpoints)
    # while the kernel reads the 17-digit text of each one's double
    assert not _read(["%.17g" % float(m) for m in midpoints])


def _perfbench(name):
    """perfbench's module `name`, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_paper_and_measured_input_csv_reads_as_before(paper_runs):
    # every CSV that the paper runs write, and the measured inputs of
    # perfbench's seeds 0 to 3: the cells by numtext.cells whatever their
    # number of rows, and the parse, against the cells of float()
    texts = {f"{name}/{path.name}": path.read_text()
             for name, run in paper_runs.items() for path in sorted(run.out.glob("*.csv"))}
    inputs, sets = _perfbench("inputs"), _perfbench("workloads").N_MEASURED_SETS
    for seed in range(4):
        for index in range(sets):
            files, _, _ = inputs.generate_set(seed, index, sets)
            texts.update({f"seed {seed} set {index}/{name}": text for name, text in files.items()})
    assert len(texts) > 40
    for name, text in texts.items():
        header = text.partition("\n")[0]
        before = numtext._float_cells(text, header)
        assert numtext.cells(text[len(header) + 1:].encode()).tobytes() == before.tobytes(), name
        assert np.column_stack(numtext.parse_two_column_csv(text, header)).tobytes() == (
            before.tobytes()), name
