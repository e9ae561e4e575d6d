"""Emitter spectra: zero-phonon line, acoustic-phonon sidebands, and the
Lorentzian-filtered spectra that drive the emitter <-> cavity population
transfer.

Sign convention used everywhere: detuning = energy - zpl_energy, so the
red (phonon emission) sideband sits at negative detuning.  Spectra are
sampled on uniform energy grids and carry an explicit normalization tag;
the "area-2pi" tag means the trapezoid integral is 2*pi, which is the
normalization the coupled-dynamics equations expect.  The grid check,
convolution and two-column CSV format the whole package uses live here.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .units import bose_occupation

AREA_2PI = "area-2pi"
RAW_COUNTS = "raw-counts"
_NORMALIZATIONS = (AREA_2PI, RAW_COUNTS)

SPECTRUM_HEADER = "energy_ueV,value"

# relative nonuniformity tolerated in a grid, and the relative window
# around 2*pi accepted for area-2pi spectra
_GRID_RTOL = 1e-9
_AREA_2PI_RTOL = 1e-6


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


def _sampled(grid, values, what):
    """Read-only (grid, values, step) of a curve sampled on a uniform grid,
    with finite, nonnegative `what` values: the one check of every
    Spectrum and DecayTrace.  A writable input is copied before it is
    frozen, so the caller's arrays stay writable; a read-only one, such as
    another curve's grid, is shared."""

    def read_only(array):
        array = np.asarray(array, dtype=float)
        if array.flags.writeable:
            array = array.copy()
            array.setflags(write=False)
        return array

    grid, values = read_only(grid), read_only(values)
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


@dataclass(frozen=True)
class Spectrum:
    """A spectral density on a uniform energy grid.

    Parameters
    ----------
    energies : ndarray
        Uniformly spaced energies in ueV (absolute or detuning from the
        zero-phonon line).
    values : ndarray
        Nonnegative spectral density per ueV (or raw counts).
    normalization : str
        One of "area-2pi", "raw-counts".

    `step` is the grid spacing in ueV.
    """

    energies: np.ndarray
    values: np.ndarray
    normalization: str = RAW_COUNTS
    step: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        energies, values, step = _sampled(self.energies, self.values, "spectral values")
        if self.normalization not in _NORMALIZATIONS:
            raise ValueError(
                f"unknown normalization {self.normalization!r}, "
                f"expected one of {_NORMALIZATIONS}"
            )
        object.__setattr__(self, "energies", energies)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "step", step)
        if self.normalization == AREA_2PI:
            area = self.area()
            if abs(area - 2.0 * np.pi) > _AREA_2PI_RTOL * 2.0 * np.pi:
                raise ValueError(
                    f"area-2pi spectrum has trapezoid integral {area:.9g}, "
                    f"outside 2*pi*(1 +- {_AREA_2PI_RTOL:g})"
                )

    def area(self):
        """Trapezoid integral of the spectrum over its grid."""
        return float(np.trapezoid(self.values, self.energies))

    def with_values(self, values):
        """This spectrum's grid and tag with new values."""
        return Spectrum(self.energies, values, self.normalization)


@dataclass(frozen=True)
class SidebandShape:
    """Parametric one-phonon acoustic wing: spectral density
    J(w) = (w/cutoff)**exponent * exp(-w/cutoff)."""

    exponent: float = 1.0
    cutoff_uev: float = 1000.0

    def __post_init__(self):
        if not self.exponent > 0:
            raise ValueError(f"sideband exponent must be > 0, got {self.exponent}")
        if not self.cutoff_uev > 0:
            raise ValueError(f"sideband cutoff must be > 0, got {self.cutoff_uev}")

    def density(self, energy_uev):
        """J evaluated at |energy| (vectorized)."""
        w = np.abs(np.asarray(energy_uev, dtype=float))
        return (w / self.cutoff_uev) ** self.exponent * np.exp(-w / self.cutoff_uev)


@dataclass(frozen=True)
class EmitterModel:
    """Free-space spectral and dynamical parameters of one emitter.

    zpl_fwhm_uev lumps pure dephasing and fast spectral diffusion into a
    single ZPL width.  gamma_fs_uev is the total free-space decay rate
    (HBAR/tau); eta_qy is the radiative fraction of it.
    """

    zpl_energy_uev: float
    zpl_fwhm_uev: float
    debye_waller: float
    sideband: SidebandShape = field(default_factory=SidebandShape)
    temperature_k: float = 4.2
    gamma_fs_uev: float = 2.5711
    eta_qy: float = 0.01

    def __post_init__(self):
        if not 0.0 < self.debye_waller <= 1.0:
            raise ValueError(f"Debye-Waller factor must be in (0, 1], got {self.debye_waller}")
        if not self.zpl_fwhm_uev > 0:
            raise ValueError(f"ZPL width must be > 0, got {self.zpl_fwhm_uev}")
        if not self.gamma_fs_uev > 0:
            raise ValueError(f"free-space decay rate must be > 0, got {self.gamma_fs_uev}")
        if not self.temperature_k >= 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature_k}")
        if not 0.0 <= self.eta_qy <= 1.0:
            raise ValueError(f"quantum yield must be in [0, 1], got {self.eta_qy}")


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
        j = model.sideband.density(detuning[off])
        n_b = bose_occupation(np.abs(detuning[off]), model.temperature_k)
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
    Spectrum with normalization "area-2pi".
    """
    energies = np.asarray(energies, dtype=float)
    step = energies[1] - energies[0]
    if step > model.zpl_fwhm_uev / 10.0:
        raise ValueError(
            f"grid too coarse: spacing {step:g} ueV exceeds zpl_fwhm/10 = "
            f"{model.zpl_fwhm_uev / 10.0:g} ueV"
        )
    lo = model.zpl_energy_uev - energies[0]
    hi = energies[-1] - model.zpl_energy_uev
    if min(lo, hi) < 10.0 * model.zpl_fwhm_uev:
        raise ValueError(
            f"grid too narrow: spans -{lo:g}/+{hi:g} ueV around the ZPL, "
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
    return Spectrum(energies, values, AREA_2PI)


def debye_waller(spectrum, zpl_window_uev):
    """Fraction of the total intensity inside a window around the peak.

    The window is centered on the grid point of maximum value (the ZPL
    for any realistic emission spectrum) and the returned value is the
    plain ratio of the windowed trapezoid integral to the total one;
    no correction is applied for ZPL tails leaking out of the window.
    """
    if not zpl_window_uev > 0:
        raise ValueError("window half-width must be positive")
    center = spectrum.energies[int(np.argmax(spectrum.values))]
    if (center - zpl_window_uev < spectrum.energies[0]
            or center + zpl_window_uev > spectrum.energies[-1]):
        raise ValueError(
            f"window +-{zpl_window_uev:g} ueV around {center:g} ueV exceeds the grid "
            f"[{spectrum.energies[0]:g}, {spectrum.energies[-1]:g}]"
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

    Returns a Spectrum with the same grid and normalization tag.
    """
    if not kappa_uev > 0:
        raise ValueError(f"kappa must be positive, got {kappa_uev}")
    step = spectrum.step
    if step > kappa_uev / 5.0:
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
    return spectrum.with_values(out)


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
    """Absorption spectrum matching an area-2pi emission spectrum.

    The spectrum is mirrored about the ZPL energy, which for a spectrum
    obeying detailed balance is the same as reweighting each sideband
    point by exp(detuning/kT): the strong red (phonon emission) wing of
    the emission becomes the strong blue wing of the absorption, and the
    symmetric ZPL is unchanged.  The result is renormalized to area 2*pi.
    """
    if s_emi.normalization != AREA_2PI:
        raise ValueError("absorption_spectrum expects an area-2pi emission spectrum")
    mirrored_energies = 2.0 * model.zpl_energy_uev - s_emi.energies
    values = np.interp(
        mirrored_energies[::-1], s_emi.energies, s_emi.values, left=0.0, right=0.0
    )[::-1]
    area = np.trapezoid(values, s_emi.energies)
    if area <= 0:
        raise ValueError("mirrored spectrum has no weight on the grid; is the ZPL on-grid?")
    values *= 2.0 * np.pi / area
    return Spectrum(s_emi.energies, values, AREA_2PI)


def parse_two_column_csv(text, header):
    """Parse CSV text whose first line is exactly `header` ("a,b") and
    whose other lines are each two finite numbers; at least two rows.

    Returns the two columns as float arrays.
    """
    lines = text.splitlines()
    if not lines or lines[0] != header:
        got = lines[0] if lines else ""
        raise ValueError(f"expected header {header!r}, got {got!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) < 2 or any(len(row) != 2 for row in rows):
        raise ValueError("need at least two data rows of two columns")
    xs, ys = zip(*rows)
    try:
        x = np.array(list(map(float, xs)))
        y = np.array(list(map(float, ys)))
    except ValueError as err:
        raise ValueError(f"malformed number: {err}") from err
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        raise ValueError(f"non-finite value in data row {int(np.argmin(finite)) + 1}")
    return x, y


@functools.lru_cache(maxsize=4)
def _row_template(grid_bytes):
    """CSV rows "<x>,%.17g\n" of a float64 grid given as its bytes: the x
    column formatted once, so the files of a sweep that share one grid
    each format only their y column.  Four grids are kept, as many as
    the commands write under one config (energy, decay time, saturation
    power, g2 delay).  Keyed by the grid's bytes, so an edited grid never
    gets stale text."""
    x = np.frombuffer(grid_bytes).tolist()
    return ("%.17g,%%.17g\n" * len(x)) % tuple(x)


def write_two_column_csv(path, header, x, y):
    """Write two columns under `header`, floats with 17 significant digits
    so that parsing the file back is bit-exact."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"columns must be 1-d of one length, got shapes {x.shape} and {y.shape}")
    text = _row_template(x.tobytes()) % tuple(y.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.write(text)
