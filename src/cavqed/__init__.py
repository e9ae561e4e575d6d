"""Cavity-QED toolkit for Purcell-enhanced single-photon emitters in
tunable Fabry-Perot microcavities: emitter spectra with acoustic phonon
sidebands, cavity loss budgets, brightening and lifetime analysis,
detuning-modulated brightness profiles with Rabi-coupling extraction,
intensity correlations, and photon-budget accounting.
"""

from .budget import (
    EfficiencyChain,
    Stage,
    calibrate_unknown_stage,
    chain_efficiency,
    collection_ratio_fs_over_cav,
    detected_port_ratio,
    fiber_flux_from_ccd,
    photons_per_count,
)
from .cavity import (
    CavityGeometry,
    CavityMode,
    LossBudget,
    exit_probabilities,
    fsr,
    internal_loss_from_q,
    kappa_from_q,
    mode_volume_gaussian,
    q_eff,
    q_from_losses,
)
from .cqed import (
    CouplingParams,
    EnvelopeFit,
    PurcellResult,
    SteadyStateResult,
    brightening_ratios,
    brightness_profile,
    emitted_spectrum,
    fit_g_from_envelope,
    g_from_lifetime,
    hill_envelope,
    invert_envelope,
    modulation_envelope,
    purcell_factor,
    solve_fp_and_qy,
    steady_state,
)
from .dynamics import (
    BiexpFit,
    DecayTrace,
    LevelScheme,
    SaturationFit,
    fit_biexponential,
    fit_saturation,
    g2_correlation,
    g2_eigenrates,
    pulsed_g2_zero,
    qy_from_saturation,
    saturation_curve,
    simulate_decay,
)
from .spectra import (
    AREA_2PI,
    RAW_COUNTS,
    EmitterModel,
    SidebandShape,
    Spectrum,
    absorption_spectrum,
    build_fs_spectrum,
    convolve_lorentzian,
    debye_waller,
    energy_grid,
    load_spectrum_csv,
    s_tilde_max,
    save_spectrum_csv,
)
from .units import (
    HBAR_UEV_PS,
    HC_UEV_NM,
    KB_UEV_PER_K,
    bose_occupation,
    energy_from_wavelength,
    lifetime_from_rate,
    rate_from_lifetime,
    wavelength_from_energy,
)

__version__ = "0.1.0"
