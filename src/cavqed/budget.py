"""Photon-budget accounting: multiplicative efficiency chains for the
collection paths, count-to-flux conversion, detected port ratios, and
algebraic calibration of a single unknown stage.

Chains are ordered lists of named stages; provenance stays explicit (a
stage is either a user value, a fixture value, or the solved unknown) and
nothing here ever silently substitutes one for another.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Stage:
    """One transmission/detection stage; efficiency None marks the single
    unknown a calibration should solve for."""

    name: str
    efficiency: float | None

    def __post_init__(self):
        if self.efficiency is not None and not 0.0 < self.efficiency <= 1.0:
            raise ValueError(
                f"stage {self.name!r}: efficiency must be in (0, 1], got {self.efficiency}"
            )


@dataclass(frozen=True)
class EfficiencyChain:
    """Ordered stages of one optical path (free-space, cavity-planar or
    cavity-fiber)."""

    path: str
    stages: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.stages:
            raise ValueError("a chain needs at least one stage")

    def stage_named(self, name):
        hits = [s for s in self.stages if s.name == name]
        if not hits:
            return None
        if len(hits) > 1:
            raise ValueError(f"stage {name!r} appears more than once in chain {self.path!r}")
        return hits[0]


def chain_efficiency(chain):
    """Product of the stage efficiencies."""
    product = 1.0
    for stage in chain.stages:
        if stage.efficiency is None:
            raise ValueError(
                f"chain {chain.path!r} has unresolved stage {stage.name!r}; "
                "calibrate it before taking the product"
            )
        product *= stage.efficiency
    return product


def photons_per_count(chain):
    """Photons at the chain input per detected count: the reciprocal of
    the path-and-detector product (the chain must not include the
    source-extraction stage)."""
    return 1.0 / chain_efficiency(chain)


def detected_port_ratio(chain_a, chain_b, exit_a, exit_b):
    """Ratio of detected rates on two ports fed by one source:
    (exit_a * path_a) / (exit_b * path_b).  With the extraction
    efficiencies of two collection paths as the exits, it is the ratio of
    their overall collection efficiencies."""
    if not (exit_a > 0 and exit_b > 0):
        raise ValueError("exit probabilities must be positive")
    return (exit_a * chain_efficiency(chain_a)) / (exit_b * chain_efficiency(chain_b))


def fiber_flux_from_ccd(ccd_counts_per_s, photons_per_ccd_count_into_fiber):
    """Photon flux in the fiber inferred from the cross-calibrated CCD
    rate on the other port."""
    if not (ccd_counts_per_s > 0 and photons_per_ccd_count_into_fiber > 0):
        raise ValueError("rates and conversion factors must be positive")
    return ccd_counts_per_s * photons_per_ccd_count_into_fiber


def calibrate_unknown_stage(chain_a, chain_b, exit_a, exit_b,
                            measured_ratio, unknown_stage_name):
    """Solve the efficiency of the single unknown stage from a measured
    detected-rate ratio between the two ports.

    The unknown must appear in exactly one of the chains.  The solution
    makes detected_port_ratio(chain_a, chain_b, ...) equal
    `measured_ratio`; values outside (0, 1] are returned with a warning
    flag rather than clipped.

    Returns (efficiency, physical) with physical False when the solved
    value is not a valid transmission.
    """
    if not measured_ratio > 0:
        raise ValueError("measured ratio must be positive")
    in_a = chain_a.stage_named(unknown_stage_name) is not None
    in_b = chain_b.stage_named(unknown_stage_name) is not None
    if in_a and in_b:
        raise ValueError(f"unknown stage {unknown_stage_name!r} appears in both chains")
    if not in_a and not in_b:
        raise ValueError(f"unknown stage {unknown_stage_name!r} is in neither chain")

    def known_product(chain):
        product = 1.0
        for stage in chain.stages:
            if stage.name == unknown_stage_name:
                continue
            if stage.efficiency is None:
                raise ValueError(
                    f"chain {chain.path!r} has a second unresolved stage {stage.name!r}")
            product *= stage.efficiency
        return product

    known_a = known_product(chain_a)
    known_b = known_product(chain_b)
    full_ratio_without_unknown = (exit_a * known_a) / (exit_b * known_b)
    if in_a:
        value = measured_ratio / full_ratio_without_unknown
    else:
        value = full_ratio_without_unknown / measured_ratio
    physical = 0.0 < value <= 1.0
    return value, physical

