"""Emitter spectra: zero-phonon line, acoustic-phonon sidebands, and the
Lorentzian-filtered spectra that drive the emitter <-> cavity population
transfer.

Sign convention used everywhere: detuning = energy - zpl_energy, so the
red (phonon emission) sideband sits at negative detuning.  Spectra are
sampled on uniform energy grids; the emission and absorption spectra
have trapezoid area 2*pi, as the coupled-dynamics equations expect, and
a Lorentzian convolution keeps its input's area.  The grid check,
convolution and two-column CSV format the whole package uses live here.
A CSV number is Python's "%.17g" text of the value; files of
_KERNEL_ROWS rows or more are formatted by cavqed.numtext, which writes
those bytes without a Python call per value.
"""

import functools
import itertools
import warnings

import numpy as np

from . import numtext
from .units import _record, bose_occupation

SPECTRUM_HEADER = "energy_ueV,value"

# relative nonuniformity tolerated in a grid
_GRID_RTOL = 1e-9


def uniform_step(grid):
    """Step of a finite, 1-d, ascending grid that is uniform to 1 part in
    1e9; raises ValueError for any other grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with >= 2 points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid values must be finite")
    steps = np.diff(grid)
    if steps[0] <= 0:
        raise ValueError("grid must be ascending")
    if np.any(np.abs(steps - steps[0]) > _GRID_RTOL * steps[0]):
        raise ValueError("grid must be uniform to 1 part in 1e9")
    return (grid[-1] - grid[0]) / (grid.size - 1)


def _sampled(grid, values, what, step=None):
    """Read-only (grid, values, step) of a curve sampled on a uniform grid,
    with finite, nonnegative `what` values: the one check of every
    Spectrum and DecayTrace.  A writable input is copied before it is
    frozen, so the caller's arrays stay writable; a read-only one, such as
    another curve's grid, is shared.  `step` is given only with the grid
    of a checked curve, whose step it is: that grid is not checked again."""

    def read_only(array):
        array = np.asarray(array, dtype=float)
        if array.flags.writeable:
            array = array.copy()
            array.setflags(write=False)
        return array

    grid, values = read_only(grid), read_only(values)
    if step is None:
        step = uniform_step(grid)
    if values.shape != grid.shape:
        raise ValueError(f"grid and {what} must have the same shape")
    if not np.all(np.isfinite(values) & (values >= 0)):
        raise ValueError(f"{what} must be finite and nonnegative")
    return grid, values, step


def _fast_length(n):
    """Smallest 2**a * 3**b * 5**c >= n: a transform length pocketfft
    handles fast for real input."""
    best = 2 * n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def fft_convolver(kernel, n):
    """Convolution of `n`-point inputs with an odd-length kernel centred
    on zero offset, sampled at the `n` input positions: returns
    `convolve(values)`, which convolves each row of a (..., n) array.

    A real FFT product at the first 5-smooth length that holds the full
    convolution.  The length and the kernel's transform are computed
    here, once, so a fit that convolves many trial curves with one kernel
    transforms the kernel once.  numpy.fft (numpy >= 2.0) and scipy.fft
    run the same pocketfft code, so at that length the result is scipy's
    bit for bit, also in the round-off at exactly-zero bins that decides
    simulated Poisson counts.
    """
    kernel = np.asarray(kernel, dtype=float)
    if kernel.ndim != 1 or kernel.size % 2 == 0:
        raise ValueError(f"kernel must be 1-d with an odd length, got shape {kernel.shape}")
    size = _fast_length(n + kernel.size - 1)
    kernel_ft = np.fft.rfft(kernel, size)
    half = (kernel.size - 1) // 2

    def convolve(values):
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != (n,):
            raise ValueError(f"convolver built for {n} points, got shape {values.shape}")
        full = np.fft.irfft(np.fft.rfft(values, size) * kernel_ft, size)
        return full[..., half:half + n]

    return convolve


class Spectrum(_record("Spectrum", "energies values", derived="step")):
    """A spectral density on a uniform energy grid.

    Parameters
    ----------
    energies : ndarray
        Uniformly spaced energies in ueV (absolute or detuning from the
        zero-phonon line).
    values : ndarray
        Nonnegative spectral density per ueV (or raw counts).

    `step`, derived, is the grid spacing in ueV.
    """

    __slots__ = ()

    def __new__(cls, energies, values):
        energies, values, step = _sampled(energies, values, "spectral values")
        return super().__new__(cls, energies, values, step)

    def _replace(self, /, **changes):
        """The spectrum with fields changed; new values alone keep this
        grid and its step, and only the values are checked."""
        if changes.keys() != {"values"}:
            return super()._replace(**changes)
        values = _sampled(self.energies, changes["values"], "spectral values", self.step)[1]
        return super().__new__(type(self), self.energies, values, self.step)

    def area(self):
        """Trapezoid integral of the spectrum over its grid."""
        return float(np.trapezoid(self.values, self.energies))


class EmitterModel(_record("EmitterModel", "zpl_energy_uev zpl_fwhm_uev debye_waller "
                                           "sideband_exponent sideband_cutoff_uev "
                                           "temperature_k")):
    """Free-space spectral parameters of one emitter.

    zpl_fwhm_uev lumps pure dephasing and fast spectral diffusion into a
    single ZPL width.  The one-phonon acoustic wing has the spectral
    density J(w) = (w/cutoff)**exponent * exp(-w/cutoff), with the
    exponent `sideband_exponent` and the cutoff `sideband_cutoff_uev`.
    The decay rate and quantum yield are not held here: the functions
    that use them take them as arguments.
    """

    __slots__ = ()

    def __new__(cls, zpl_energy_uev, zpl_fwhm_uev, debye_waller, sideband_exponent=1.0,
                sideband_cutoff_uev=1000.0, temperature_k=4.2):
        if not np.isfinite(zpl_energy_uev):
            raise ValueError(f"ZPL energy must be finite, got {zpl_energy_uev}")
        if not sideband_exponent > 0:
            raise ValueError(f"sideband exponent must be > 0, got {sideband_exponent}")
        if not sideband_cutoff_uev > 0:
            raise ValueError(f"sideband cutoff must be > 0, got {sideband_cutoff_uev}")
        if not 0.0 < debye_waller <= 1.0:
            raise ValueError(f"Debye-Waller factor must be in (0, 1], got {debye_waller}")
        if not zpl_fwhm_uev > 0:
            raise ValueError(f"ZPL width must be > 0, got {zpl_fwhm_uev}")
        if not temperature_k >= 0:
            raise ValueError(f"temperature must be >= 0, got {temperature_k}")
        return super().__new__(cls, zpl_energy_uev, zpl_fwhm_uev, debye_waller,
                               sideband_exponent, sideband_cutoff_uev, temperature_k)


def energy_grid(center_uev, half_span_uev, step_uev):
    """Uniform, symmetric energy grid centered on `center_uev`.

    The grid always contains the center point, with an odd number of
    points spanning at least +- half_span_uev.
    """
    if not (np.isfinite(center_uev) and step_uev > 0 and half_span_uev > 0):
        raise ValueError("grid centre must be finite, grid step and half-span positive")
    n_half = int(np.ceil(half_span_uev / step_uev))
    offsets = np.arange(-n_half, n_half + 1) * step_uev
    return center_uev + offsets


def lorentzian(energy_uev, center_uev, fwhm_uev):
    """Unit-area Lorentzian of full width `fwhm_uev` (peak 2/(pi*fwhm))."""
    x = 2.0 * (np.asarray(energy_uev, dtype=float) - center_uev) / fwhm_uev
    return (2.0 / (np.pi * fwhm_uev)) / (1.0 + x * x)


def sideband_profile(model, energies):
    """Unnormalized one-phonon wing of the emission spectrum.

    Red wing (negative detuning): J(|d|) * (n_B(|d|) + 1), phonon emission.
    Blue wing (positive detuning): J(|d|) * n_B(|d|), phonon absorption.
    Vanishes at zero detuning (J -> 0), so the wing never double-counts
    the ZPL.
    """
    detuning = np.asarray(energies, dtype=float) - model.zpl_energy_uev
    wing = np.zeros_like(detuning)
    off = detuning != 0.0
    if np.any(off):
        w = np.abs(detuning[off])
        cutoff = model.sideband_cutoff_uev
        j = (w / cutoff) ** model.sideband_exponent * np.exp(-w / cutoff)
        n_b = bose_occupation(w, model.temperature_k)
        wing[off] = j * np.where(detuning[off] < 0, n_b + 1.0, n_b)
    return wing


def build_fs_spectrum(model, energies):
    """Free-space emission spectrum: Lorentzian ZPL plus one-phonon wings.

    The ZPL carries a fraction `model.debye_waller` of the total area and
    the wings carry the rest, with the red/blue asymmetry set by the Bose
    occupation at `model.temperature_k`.  The result is normalized to
    trapezoid area 2*pi.

    Parameters
    ----------
    model : EmitterModel
    energies : ndarray
        Uniform grid spanning at least +- 10 ZPL widths around the ZPL,
        with spacing at most one tenth of the ZPL width.

    Returns
    -------
    Spectrum of trapezoid area 2*pi.
    """
    # the spectrum's grid, checked once: the result takes its values
    curve = Spectrum(energies, np.zeros(np.shape(energies)))
    energies, step = curve.energies, curve.step
    # a grid rounds its step and span: the limits allow for the grid's
    # uniformity tolerance, so a step or span given exactly at a limit passes
    if step > model.zpl_fwhm_uev / 10.0 * (1.0 + _GRID_RTOL):
        raise ValueError(
            f"grid too coarse: spacing {step:g} ueV exceeds zpl_fwhm/10 = "
            f"{model.zpl_fwhm_uev / 10.0:g} ueV"
        )
    lo = model.zpl_energy_uev - energies[0]
    hi = energies[-1] - model.zpl_energy_uev
    if min(lo, hi) < 10.0 * model.zpl_fwhm_uev * (1.0 - _GRID_RTOL):
        raise ValueError(
            f"grid too narrow: spans {energies[0] - model.zpl_energy_uev:+g}/"
            f"{energies[-1] - model.zpl_energy_uev:+g} ueV around the ZPL, "
            f"needs at least +-10*zpl_fwhm = {10.0 * model.zpl_fwhm_uev:g} ueV"
        )

    zpl = lorentzian(energies, model.zpl_energy_uev, model.zpl_fwhm_uev)
    zpl_area = np.trapezoid(zpl, energies)
    values = (model.debye_waller / zpl_area) * zpl

    if model.debye_waller < 1.0:
        wing = sideband_profile(model, energies)
        wing_area = np.trapezoid(wing, energies)
        if wing_area <= 0:
            raise ValueError("sideband weight is nonzero but the wing has no support on this grid")
        values = values + ((1.0 - model.debye_waller) / wing_area) * wing

    values *= 2.0 * np.pi / np.trapezoid(values, energies)
    return curve._replace(values=values)


def debye_waller(spectrum, zpl_window_uev):
    """Fraction of the total intensity inside a window around the peak.

    The window is centered on the grid point of maximum value (the ZPL
    for any realistic emission spectrum) and the returned value is the
    plain ratio of the windowed trapezoid integral to the total one;
    no correction is applied for ZPL tails leaking out of the window.  A
    window that runs past the grid, as when the sideband outweighs the
    ZPL, is integrated over its part inside the grid, with a warning.
    """
    if not zpl_window_uev > 0:
        raise ValueError("window half-width must be positive")
    center = spectrum.energies[int(np.argmax(spectrum.values))]
    if (center - zpl_window_uev < spectrum.energies[0]
            or center + zpl_window_uev > spectrum.energies[-1]):
        warnings.warn(
            f"window +-{zpl_window_uev:g} ueV around {center:g} ueV exceeds the grid "
            f"[{spectrum.energies[0]:g}, {spectrum.energies[-1]:g}]; integrating over "
            "its part inside the grid"
        )
    inside = np.abs(spectrum.energies - center) <= zpl_window_uev
    num = np.trapezoid(np.where(inside, spectrum.values, 0.0), spectrum.energies)
    den = spectrum.area()
    if den <= 0:
        raise ValueError("cannot measure the ZPL fraction of an all-zero spectrum")
    return float(num / den)


def convolve_lorentzian(spectrum, kappa_uev):
    """Convolve a spectrum with a unit-area Lorentzian of FWHM `kappa_uev`.

    The discrete convolution truncates at the grid edges; to keep the
    stated area contract the result is rescaled so its on-grid integral
    matches the input exactly.  Grids should over-span the region of
    interest by >= 10 kappa for the rescaling factor to stay small.

    Returns a Spectrum on the same grid, of the same trapezoid area.
    """
    if not kappa_uev > 0:
        raise ValueError(f"kappa must be positive, got {kappa_uev}")
    step = spectrum.step
    if step > kappa_uev / 5.0 * (1.0 + _GRID_RTOL):  # slack as in build_fs_spectrum
        raise ValueError(
            f"kappa below grid resolution: spacing {step:g} ueV exceeds "
            f"kappa/5 = {kappa_uev / 5.0:g} ueV"
        )
    convolve = _lorentzian_convolver(float(kappa_uev), float(step), spectrum.values.size)
    out = np.maximum(convolve(spectrum.values) * step, 0.0)
    total_in = spectrum.area()
    total_out = np.trapezoid(out, spectrum.energies)
    if total_in > 0:
        if total_out <= 0:
            raise ValueError("convolution lost all spectral weight; grid badly under-spans")
        out *= total_in / total_out
    return spectrum._replace(values=out)


@functools.lru_cache(maxsize=8)
def _lorentzian_convolver(kappa_uev, step, n):
    """fft_convolver of the unit-area Lorentzian of FWHM `kappa_uev` for
    `n`-point grids of spacing `step`, cached because a sweep convolves
    several spectra on one grid with one cavity width.  The kernel spans
    the full +-(n-1) offset range at unit discrete area: the grid center
    sees the exact convolution, mass past the edges is dropped."""
    kernel = lorentzian(np.arange(-(n - 1), n) * step, 0.0, kappa_uev)
    kernel /= kernel.sum() * step
    return fft_convolver(kernel, n)


def s_tilde_max(dw, gamma_star_uev, kappa_uev):
    """Peak of the cavity-filtered emission spectrum, 4*DW/(zpl_fwhm + kappa).

    This is the closed form for a ZPL-dominated area-2pi spectrum whose
    Lorentzian ZPL is convolved with the cavity Lorentzian, and links the
    peak of the filtered spectrum to the Debye-Waller factor.
    """
    if not 0.0 < dw <= 1.0:
        raise ValueError(f"Debye-Waller factor must be in (0, 1], got {dw}")
    if not (gamma_star_uev > 0 and kappa_uev >= 0):
        raise ValueError("widths must be positive (kappa may be zero)")
    return 4.0 * dw / (gamma_star_uev + kappa_uev)


def absorption_spectrum(s_emi, model):
    """Absorption spectrum matching an emission spectrum.

    The spectrum is mirrored about the ZPL energy, which for a spectrum
    obeying detailed balance is the same as reweighting each sideband
    point by exp(detuning/kT): the strong red (phonon emission) wing of
    the emission becomes the strong blue wing of the absorption, and the
    symmetric ZPL is unchanged.  Returns a Spectrum of trapezoid area 2*pi,
    whatever the emission spectrum's area.
    """
    mirrored_energies = 2.0 * model.zpl_energy_uev - s_emi.energies
    values = np.interp(
        mirrored_energies[::-1], s_emi.energies, s_emi.values, left=0.0, right=0.0
    )[::-1]
    area = np.trapezoid(values, s_emi.energies)
    if area <= 0:
        raise ValueError("mirrored spectrum has no weight on the grid; is the ZPL on-grid?")
    values *= 2.0 * np.pi / area
    return s_emi._replace(values=values)


def parse_two_column_csv(text, header):
    """Parse CSV text whose first line is exactly `header` ("a,b") and
    whose other lines are each two finite numbers; at least two rows.

    Returns the two columns as float arrays.  Every pass over the rows
    runs in C: the shape check counts each line's commas, the lines are
    split into one list of cells, and `float` converts the cells straight
    into one array, so the parse costs little more than `float` of each
    cell.  Only a body with a non-ASCII character or a "_", which `float`
    would misread, is checked cell by cell in Python.  A content error
    names the data row, and a malformed number also the column, of the
    first bad cell in reading order.
    """
    lines = text.splitlines()
    if not lines or lines[0] != header:
        got = lines[0] if lines else ""
        raise ValueError(f"expected header {header!r}, got {got!r}")
    body = lines[1:]
    # per line, not in total: "1,2,3" and "4" have four cells between them
    commas = list(map(str.count, body, itertools.repeat(",")))
    if len(body) < 2 or commas.count(1) != len(body):
        raise ValueError("need at least two data rows of two columns")
    joined = ",".join(body)
    cells = joined.split(",")
    unread = iter(cells)
    convert = float if joined.isascii() and "_" not in joined else _plain_float
    try:
        xy = np.fromiter(map(convert, unread), float, len(cells))
    except ValueError as err:
        # convert stopped at the first bad cell; what it left unread follows it
        i = len(cells) - len(list(unread)) - 1
        column = header.split(",")[i % 2]
        raise ValueError(f"malformed number in data row {i // 2 + 1}, column {column!r}: "
                         f"{err}") from err
    x, y = xy.reshape(-1, 2).T.copy()  # each column contiguous
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        raise ValueError(f"non-finite value in data row {int(np.argmin(finite)) + 1}")
    return x, y


def _plain_float(cell):
    """float() of a CSV cell, refusing the "1_000" and non-ASCII digits
    that float() itself takes."""
    if not cell.isascii() or "_" in cell:
        raise ValueError(f"not a plain ASCII number: {cell!r}")
    return float(cell)


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
    by numtext, so the files of a sweep that share one grid each format
    only their y column: for fewer than _KERNEL_ROWS points the rows'
    text "<x>,%.17g\n", a template for Python's %, else the words of "<x>,"
    of each block of _BLOCK rows.  Four grids are kept, as many as the
    commands write under one config (energy, decay time, saturation
    power, g2 delay).  Keyed by the grid's bytes, so an edited grid never
    gets stale text."""
    grid = np.frombuffer(grid_bytes)
    if grid.size < _KERNEL_ROWS:
        return numtext.rows(("%.17g", grid), b",%.17g\n").decode()
    blocks = [numtext.layout(("%.17g", grid[i:i + _BLOCK]), b",")
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
        rows = [(column % tuple(y.tolist())).encode()]
    else:
        rows = (numtext.rows(words, ("%.17g", y[i * _BLOCK:(i + 1) * _BLOCK]), b"\n")
                for i, words in enumerate(column))
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        fh.writelines(rows)
