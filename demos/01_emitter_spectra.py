"""Build the free-space emission spectrum of a low-quantum-yield color
center (Lorentzian zero-phonon line plus acoustic one-phonon wings),
measure its Debye-Waller factor back from the curve, and filter it with
the cavity Lorentzian to get the spectra that drive the cavity coupling.
"""

from pathlib import Path

import numpy as np

from cavqed import numtext, spectra, svg
from cavqed.units import energy_from_wavelength

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

# emitter at 1275 nm: 200 ueV ZPL, 65% of the emission in the ZPL,
# one-phonon wings with a 1 meV acoustic cutoff, 4.2 K
zpl_energy = energy_from_wavelength(1275.0)
model = spectra.EmitterModel(
    zpl_energy_uev=zpl_energy,
    zpl_fwhm_uev=200.0,
    debye_waller=0.65,
    sideband_exponent=1.0,
    sideband_cutoff_uev=1000.0,
    temperature_k=4.2,
)

grid = spectra.energy_grid(zpl_energy, 6000.0, 4.0)
s_fs = spectra.build_fs_spectrum(model, grid)
print(f"free-space spectrum: area = {s_fs.area():.6f} (2*pi = {2*np.pi:.6f})")
print(f"ZPL peak = {s_fs.values.max():.4e} /ueV")

# the windowed intensity ratio recovers the ZPL weight
dw = spectra.debye_waller(s_fs, zpl_window_uev=600.0)
print(f"measured Debye-Waller factor: {dw:.3f} (built with 0.65)")

# red wing beats the blue wing by the phonon occupation asymmetry
detuning = grid - zpl_energy
red = np.trapezoid(np.where(detuning < 0, s_fs.values, 0.0), grid)
blue = np.trapezoid(np.where(detuning > 0, s_fs.values, 0.0), grid)
print(f"red/blue wing weight: {red / blue:.2f}")

# cavity filtering: one convolution for the rate profile, and the peak
# follows 4 DW/(zpl_fwhm + kappa)
kappa = zpl_energy / 1.12e4
s_tilde = spectra.convolve_lorentzian(s_fs, kappa)
print(f"kappa = {kappa:.1f} ueV")
print(f"filtered peak = {s_tilde.values.max():.4e} /ueV, closed form "
      f"{spectra.s_tilde_max(0.65, 200.0, kappa):.4e} /ueV")

# absorption mirror: the strong wing flips to the blue side
s_abs = spectra.absorption_spectrum(s_fs, model)

numtext.write_two_column_csv(OUT / "demo_fs_spectrum.csv", spectra.SPECTRUM_HEADER,
                             s_fs.energies, s_fs.values)
svg.write_line_svg(
    OUT / "demo_spectra.svg", detuning,
    [("emission", s_fs.values), ("absorption", s_abs.values),
     ("emission, cavity-filtered", s_tilde.values)],
    title="Emitter spectra", x_label="detuning (ueV)", y_label="density (1/ueV)")
print(f"wrote {OUT}/demo_fs_spectrum.csv and {OUT}/demo_spectra.svg")
