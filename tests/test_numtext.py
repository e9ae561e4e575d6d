"""The numtext kernel against Python's own %: every byte of every case."""

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
