"""Cavity figures of merit from geometry and losses, and the two-way
Purcell bookkeeping: forward from (DW, F_P, eta_QY) to brightening and
lifetime ratios, and back from the measured ratios to (F_P, eta_QY).
"""


from cavqed import cavity, cqed, fixtures
from cavqed.units import HBAR_UEV_PS, energy_from_wavelength

zpl_energy = energy_from_wavelength(1275.0)

# Gaussian-beam mode volumes vs the simulated fixture table
table = fixtures.load_table_s1()
print("p   V_gauss  V_fixture  Q_exp    kappa(ueV)")
for p in sorted(table):
    geometry = cavity.CavityGeometry(1275.0, 1.0, 10.0, p)
    v_gauss = cavity.mode_volume_gaussian(geometry)
    row = table[p]
    kappa = cavity.kappa_from_q(zpl_energy, row["q_exp"])
    print(f"{p}   {v_gauss:6.2f}   {row['v_eff_lambda3']:6.2f}    "
          f"{row['q_exp']:7.0f}  {kappa:6.1f}")

# loss budget: a 3366 ppm round trip at p=6 reproduces Q ~ 1.12e4
budget = cavity.LossBudget(t_flat=500.0, t_fiber=300.0, internal_per_pass=1283.0)
finesse, q = cavity.q_from_losses(budget, 6)
print(f"\nround trip {budget.round_trip_ppm:.0f} ppm -> finesse {finesse:.0f}, Q {q:.0f}")

# and the reverse: the measured/simulated Q gap prices the internal loss
per_pass = cavity.internal_loss_from_q(table[6]["q_exp"], table[6]["q_th"], 6)
print(f"internal loss deduced from the Q gap: {per_pass:.0f} ppm per pass")

# lossless partition of the budget (synthetic; simulated ports include
# mode-matching effects and live in the fixture table instead)
print("loss partition:", {k: f"{v:.3f}" for k, v in cavity.exit_probabilities(budget).items()})

# effective Q folds in the emitter linewidth
q_emitter = zpl_energy / 200.0
q_eff = cavity.q_eff(table[6]["q_exp"], q_emitter)
f_p_theory = cqed.purcell_factor(1.0, table[6]["v_eff_lambda3"], q_eff)
print(f"\nQ_emitter {q_emitter:.0f}, Q_eff {q_eff:.0f} -> ideal Purcell factor "
      f"{f_p_theory:.0f} (point emitter at the antinode)")

# measured-ratio closure: saturation brightening 19 and lifetime ratio
# 1.19 with DW = 0.65 give F_P ~ 29 and a ~1% quantum yield
f_p, eta_qy = cqed.solve_fp_and_qy(19.0, 1.19, 0.65)
print(f"solved from measured ratios: F_P = {f_p:.1f}, eta_QY = {eta_qy:.2%}")

ratios = cqed.brightening_ratios(0.65, f_p, eta_qy)
print(f"round trip: sat ratio {ratios.flux_ratio_sat:.1f}, linear ratio "
      f"{ratios.flux_ratio_linear:.1f}, decay ratio {ratios.decay_ratio:.3f}")

# the two coupling estimators disagree by the spectral-diffusion share
# of the ZPL width
delta_gamma = (1.19 - 1.0) * HBAR_UEV_PS / 256.0
g_lifetime = cqed.g_from_lifetime(200.0, delta_gamma, 0.65)
print(f"\nlifetime-based coupling g = {g_lifetime:.2f} ueV vs spectral 25 ueV "
      f"(factor {25.0 / g_lifetime:.1f})")
