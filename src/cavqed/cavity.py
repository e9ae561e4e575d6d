"""Fabry-Perot microcavity modes: geometry, Gaussian-beam mode volume,
finesse and quality factor from round-trip losses, internal-loss
deduction from measured vs simulated Q, and loss-partition exit
probabilities.

The analytic mode volume ignores field penetration into the mirror
stacks (geometric length only), which is good to ~20% against full-field
simulations of short cavities; simulated values should be loaded as
fixtures where that matters.
"""

import numpy as np

from .units import _record


class CavityGeometry(_record("CavityGeometry", "wavelength_nm refractive_index "
                                               "radius_of_curvature_um mode_order")):
    """Plano-concave cavity of longitudinal order p (length p*lambda/2)."""

    __slots__ = ()

    def __new__(cls, wavelength_nm, refractive_index, radius_of_curvature_um, mode_order):
        if not wavelength_nm > 0:
            raise ValueError(f"wavelength must be positive, got {wavelength_nm}")
        if not refractive_index > 0:
            raise ValueError(f"refractive index must be positive, got {refractive_index}")
        if not mode_order >= 1:
            raise ValueError(f"mode order must be >= 1, got {mode_order}")
        geometry = super().__new__(cls, wavelength_nm, refractive_index,
                                   radius_of_curvature_um, mode_order)
        if not geometry.length_um < radius_of_curvature_um:
            raise ValueError(
                f"unstable cavity: length {geometry.length_um:g} um >= radius of "
                f"curvature {radius_of_curvature_um:g} um"
            )
        return geometry

    @property
    def length_um(self):
        """Geometric cavity length p * lambda / 2 in um."""
        return self.mode_order * self.wavelength_nm * 1e-3 / 2.0


class LossBudget(_record("LossBudget", "t_flat t_fiber internal_per_pass spillout cladding")):
    """Per-round-trip losses of one cavity mode, in ppm.

    `internal_per_pass` is the scattering/absorption loss of the
    intracavity layer for a single pass; it is counted twice per round
    trip.  The transmissions `t_flat` and `t_fiber` deliver photons to a
    port; everything else is a pure loss.
    """

    __slots__ = ()

    def __new__(cls, t_flat=500.0, t_fiber=300.0, internal_per_pass=0.0, spillout=0.0,
                cladding=0.0):
        budget = super().__new__(cls, t_flat, t_fiber, internal_per_pass, spillout, cladding)
        for name, loss in zip(cls._fields, budget):
            if not loss >= 0:
                raise ValueError(f"loss channel {name} must be >= 0")
        if not budget.round_trip_ppm > 0:
            raise ValueError("total round-trip loss must be positive")
        return budget

    @property
    def round_trip_ppm(self):
        return (self.t_flat + self.t_fiber + 2.0 * self.internal_per_pass
                + self.spillout + self.cladding)


def mode_volume_gaussian(geometry):
    """Gaussian-beam effective mode volume, in units of (lambda/n)**3.

    V = (pi/4) * w0**2 * L with the standard plano-concave waist
    w0**2 = (lambda/(pi*n)) * sqrt(L*(R - L)).  Strictly increasing in
    the mode order while L < 3R/4.
    """
    lam_um = geometry.wavelength_nm * 1e-3
    n = geometry.refractive_index
    length = geometry.length_um
    radius = geometry.radius_of_curvature_um
    waist_sq = (lam_um / (np.pi * n)) * np.sqrt(length * (radius - length))
    volume_um3 = (np.pi / 4.0) * waist_sq * length
    return volume_um3 / (lam_um / n) ** 3


def q_from_losses(budget, mode_order):
    """(finesse, Q) from a round-trip loss budget: F = 2 pi / L_rt, Q = F p."""
    if mode_order < 1:
        raise ValueError(f"mode order must be >= 1, got {mode_order}")
    l_rt = budget.round_trip_ppm * 1e-6
    finesse = 2.0 * np.pi / l_rt
    return finesse, finesse * mode_order


def internal_loss_from_q(q_measured, q_theory, mode_order):
    """Per-pass internal loss (ppm) explaining a measured-vs-simulated Q gap.

    The excess round-trip loss is 2 pi p (1/Q_meas - 1/Q_th); half of it
    is assigned to each pass through the intracavity layer.
    """
    if not (q_measured > 0 and q_theory > 0):
        raise ValueError("quality factors must be positive")
    if q_measured >= q_theory:
        raise ValueError(
            f"Q_measured = {q_measured:g} >= Q_theory = {q_theory:g}: "
            "no internal loss can be deduced"
        )
    excess_round_trip = 2.0 * np.pi * mode_order * (1.0 / q_measured - 1.0 / q_theory)
    return 0.5 * excess_round_trip * 1e6


def exit_probabilities(budget):
    """Lossless partition of the round-trip budget: P_i = L_i / L_rt.

    Covers every channel (useful and pure), so the values sum to exactly
    one; the internal loss is counted twice, once per pass.  Real
    cavities add mode-matching factors on top of this; use simulated
    fixture values for quantitative port efficiencies.
    """
    channels = {
        "t_flat": budget.t_flat,
        "t_fiber": budget.t_fiber,
        "internal": 2.0 * budget.internal_per_pass,
        "spillout": budget.spillout,
        "cladding": budget.cladding,
    }
    total = budget.round_trip_ppm
    return {name: ppm / total for name, ppm in channels.items()}


def q_eff(q_cav, q_emitter):
    """Harmonic combination (1/Q_cav + 1/Q_em)**-1, never above either input."""
    if not (q_cav > 0 and q_emitter > 0):
        raise ValueError("quality factors must be positive")
    return 1.0 / (1.0 / q_cav + 1.0 / q_emitter)


def kappa_from_q(energy_uev, q):
    """Cavity linewidth kappa = E / Q in ueV."""
    if not (energy_uev > 0 and q > 0):
        raise ValueError("energy and Q must be positive")
    return energy_uev / q
