"""Time-resolved and saturation analysis: simulate response-convolved
decay traces with shot noise, fit them biexponentially, compare the
free-space and cavity long lifetimes, and extract the quantum yield from
a pulsed saturation curve.
"""

import numpy as np

from cavqed import config, dynamics
from cavqed.units import HBAR_UEV_PS

gamma_fs = HBAR_UEV_PS / 256.0
grid = np.arange(-40, 385) * 4.0
rng = np.random.default_rng(4)

traces = {}
for label, ratio in (("free space", 1.0), ("cavity", 1.19)):
    clean = dynamics.simulate_decay(gamma_fs, ratio, weights=(2.0, 1.0),
                                    tau_short_ps=23.0, irf=32.0, time_grid_ps=grid)
    noisy = rng.poisson(clean.counts * (1e5 / clean.counts.max())).astype(float)
    traces[label] = dynamics.DecayTrace(grid, noisy, 32.0)

fits = {label: dynamics.fit_biexponential(trace) for label, trace in traces.items()}
for label, fit in fits.items():
    print(f"{label}: tau1 = {fit.tau1_ps:5.1f} +- {fit.sigma_tau1_ps:.1f} ps, "
          f"tau2 = {fit.tau2_ps:6.1f} +- {fit.sigma_tau2_ps:.1f} ps, "
          f"long weight {fit.long_weight:.2f}")
ratio = fits["free space"].tau2_ps / fits["cavity"].tau2_ps
print(f"lifetime ratio tau2_fs / tau2_cav = {ratio:.3f} (simulated at 1.19)")

# pulsed saturation: plateau = collection x quantum yield x rep rate
f_rep = 38.26e6
eta_coll = config.load("paper")["budget"]["overall_quoted"]["free_space"]
eta_qy_true = 0.007
i_sat_true = eta_coll * eta_qy_true * f_rep
print(f"\nexpected plateau: {i_sat_true:.0f} counts/s "
      f"(eta_coll {eta_coll:.2%}, eta_QY {eta_qy_true:.2%})")

powers = np.geomspace(30.0, 30000.0, 25)
curve = dynamics.saturation_curve(powers, i_sat_true, 1000.0, "pulsed")
noisy = curve * (1.0 + 0.01 * rng.standard_normal(curve.size))
fit = dynamics.fit_saturation(powers, noisy, "pulsed")
eta_qy = dynamics.qy_from_saturation(fit.i_sat, eta_coll, f_rep)
print(f"fit: I_sat = {fit.i_sat:.0f} +- {fit.sigma_i_sat:.0f} counts/s, "
      f"P_sat = {fit.p_sat:.0f} -> eta_QY = {eta_qy:.2%}")
