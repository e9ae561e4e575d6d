"""Intensity correlations of the three-level emitter: antibunching at
zero delay, background-limited g2(0), shelving-induced bunching on the
10 ns scale, and the pulsed correlation comb.
"""

from pathlib import Path

import numpy as np

from cavqed import dynamics, fixtures, svg
from cavqed.units import HBAR_UEV_PS

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

defaults = fixtures.paper_defaults()["g2_scheme"]
scheme = dynamics.LevelScheme(
    pump_uev=defaults["pump_uev"],
    gamma_total_uev=HBAR_UEV_PS / 256.0,
    k_shelve_uev=defaults["k_shelve_uev"],
    k_deshelve_uev=defaults["k_deshelve_uev"],
    background=defaults["background"],
)

fast, slow = dynamics.g2_eigenrates(scheme)
print(f"antibunching recovery {1 / fast:.0f} ps, bunching decay {1 / slow:.0f} ps")

tau = np.arange(-15000, 15001) * 4.0
g2_cw = dynamics.g2_correlation(scheme, tau, irf=defaults["irf_fwhm_ps"])
izero = tau.size // 2
print(f"cw g2(0) = {g2_cw[izero]:.3f} raw with the 32 ps response; "
      f"background floor b(2-b) = "
      f"{dynamics.apply_background(0.0, scheme.background):.3f}")
print(f"bunching shoulder peaks at g2 = {g2_cw.max():.3f}")

# pulsed comb: zero-delay peak carries only background coincidences
f_rep = 38.26e6
tau_pulsed = np.arange(-60000, 60001) * 8.0
g2_pulsed = dynamics.pulsed_g2_comb(scheme, tau_pulsed, f_rep,
                                    irf=defaults["irf_fwhm_ps"])
ratio = dynamics.pulsed_g2_zero(tau_pulsed, g2_pulsed, f_rep)
print(f"pulsed g2(0) (zero-peak area over mean side peak) = {ratio:.3f}")

svg.write_line_svg(OUT / "demo_g2_cw.svg", tau, [("g2", g2_cw)],
                   title="cw intensity correlation", x_label="tau (ps)", y_label="g2")
svg.write_line_svg(OUT / "demo_g2_pulsed.svg", tau_pulsed, [("g2", g2_pulsed)],
                   title="pulsed correlation comb", x_label="tau (ps)", y_label="area")
print(f"wrote {OUT}/demo_g2_cw.svg and {OUT}/demo_g2_pulsed.svg")
