"""Photon-budget accounting: multiplicative efficiency chains for the
collection paths, count-to-flux conversion, detected port ratios, and
algebraic calibration of one stage from a measured port ratio.

A chain is a mapping of stage name to efficiency in (0, 1], multiplied
in its order: a path of the config's `budget.chains`.  A calibration
names the stage it solves and leaves that stage's listed efficiency out,
so the same chains serve both the forward budget and the calibration.
"""


def _product(chain, leave_out=None):
    """Product of the chain's efficiencies in order, from 1.0, without
    that of the stage named `leave_out`; every efficiency, that one's
    too, must be in (0, 1]."""
    product = 1.0
    for name, efficiency in chain.items():
        if not 0.0 < efficiency <= 1.0:
            raise ValueError(f"stage {name!r}: efficiency must be in (0, 1], got {efficiency}")
        if name != leave_out:
            product *= efficiency
    return product


def chain_efficiency(chain):
    """Product of the stage efficiencies."""
    if not chain:
        raise ValueError("a chain needs at least one stage")
    return _product(chain)


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
    """Solve the efficiency of one stage from a measured detected-rate
    ratio between the two ports.

    The named stage must appear in exactly one of the chains; the
    efficiency listed for it is checked but otherwise ignored.  The
    solution makes detected_port_ratio(chain_a, chain_b, ...) equal
    `measured_ratio`; values outside (0, 1] are returned with a warning
    flag rather than clipped.

    Returns (efficiency, physical) with physical False when the solved
    value is not a valid transmission.
    """
    if not (exit_a > 0 and exit_b > 0):
        raise ValueError("exit probabilities must be positive")
    if not measured_ratio > 0:
        raise ValueError("measured ratio must be positive")
    known_a = _product(chain_a, unknown_stage_name)
    known_b = _product(chain_b, unknown_stage_name)
    in_a, in_b = unknown_stage_name in chain_a, unknown_stage_name in chain_b
    if in_a and in_b:
        raise ValueError(f"unknown stage {unknown_stage_name!r} appears in both chains")
    if not in_a and not in_b:
        raise ValueError(f"unknown stage {unknown_stage_name!r} is in neither chain")
    full_ratio_without_unknown = (exit_a * known_a) / (exit_b * known_b)
    if in_a:
        value = measured_ratio / full_ratio_without_unknown
    else:
        value = full_ratio_without_unknown / measured_ratio
    physical = 0.0 < value <= 1.0
    return value, physical
