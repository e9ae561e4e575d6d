"""The tunable-cavity brightness profile beta(w_cav), the detuning-swept
output envelope, its algebraic inversion, and the coupling fit: sweep the
longitudinal orders, fit g on each synthetic envelope, and check that
g^2 scales with the inverse mode volume.
"""

from pathlib import Path

import numpy as np

from cavqed import config, cqed, spectra, svg
from cavqed.units import HBAR_UEV_PS, energy_from_wavelength

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

zpl_energy = energy_from_wavelength(1275.0)
gamma = HBAR_UEV_PS / 256.0
model = spectra.EmitterModel(zpl_energy, 200.0, 0.65)
grid = spectra.energy_grid(zpl_energy, 6000.0, 4.0)
s_fs = spectra.build_fs_spectrum(model, grid)

table = {row["p"]: row for row in config.load("paper")["cavity"]["modes"]}
kappa6 = zpl_energy / table[6]["q_exp"]
s_tilde = spectra.convolve_lorentzian(s_fs, kappa6)

# brightness profile at the smallest mode volume
coupling = cqed.CouplingParams(25.0, gamma, kappa6)
beta = cqed.brightness_profile(coupling, s_tilde)
print(f"beta on the ZPL: {beta.values.max():.3f} "
      f"(phonon wings keep beta > 0.1 over "
      f"{4.0 * np.sum(beta.values > 0.1) / 1000.0:.1f} meV)")

# modulating the cavity sweeps the Lorentzian line across beta
envelope = spectra.convolve_lorentzian(beta, kappa6)

# the closed-form envelope in terms of the doubly-filtered spectrum is
# algebraically invertible
s_dtilde = spectra.convolve_lorentzian(s_tilde, kappa6)
closed = cqed.hill_envelope(coupling.a, s_dtilde.values, c=1.0)
recovered = cqed.invert_envelope(spectra.Spectrum(grid, closed), coupling.a, 1.0)
round_trip = np.max(np.abs(recovered.values - s_dtilde.values) / s_dtilde.values.max())
print(f"inversion round trip, max deviation: {round_trip:.2e}")

# coupling sweep: fit g per longitudinal order from noisy envelopes
print("\np   kappa   g_true  g_fit   rms residual")
rng = np.random.default_rng(1)
inv_v, g_sq = [], []
for p in sorted(table):
    row = table[p]
    kappa = zpl_energy / row["q_exp"]
    g_true = 25.0 * np.sqrt(table[6]["v_eff_lambda3"] / row["v_eff_lambda3"])
    s_dt = spectra.convolve_lorentzian(spectra.convolve_lorentzian(s_fs, kappa), kappa)
    clean = cqed.hill_envelope(g_true ** 2 / gamma, s_dt.values)
    noisy = np.maximum(clean / clean.max() * (1 + 0.01 * rng.standard_normal(grid.size)), 0)
    fit = cqed.fit_g_from_envelope(spectra.Spectrum(grid, noisy), s_dt, gamma)
    print(f"{p}   {kappa:5.1f}   {g_true:5.2f}  {fit.g_uev:5.2f}   {fit.residual:.2e}")
    inv_v.append(1.0 / row["v_eff_lambda3"])
    g_sq.append(fit.g_uev ** 2)

slope, intercept = np.polyfit(inv_v, g_sq, 1)
pred = np.polyval([slope, intercept], inv_v)
r2 = 1.0 - np.sum((np.array(g_sq) - pred) ** 2) / np.sum((g_sq - np.mean(g_sq)) ** 2)
print(f"\ng^2 vs 1/V_eff: slope {slope:.1f} ueV^2 lambda^3, R^2 = {r2:.4f}")

svg.write_line_svg(OUT / "demo_brightness.svg", grid - zpl_energy,
                   [("beta", beta.values), ("envelope", envelope.values)],
                   title="Brightness profile and swept envelope",
                   x_label="cavity detuning (ueV)", y_label="probability")
print(f"wrote {OUT}/demo_brightness.svg")
