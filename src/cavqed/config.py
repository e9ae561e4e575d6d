"""The config language of `pl`: one JSON object whose keys, defaults and
rules are CONFIG_KEYS.  `load` builds a run's config, and the
`*_from_config` builders turn a checked config into the library's value
types; they import the physics modules in their own bodies, so at module
level this module loads only the standard library and `fixtures`.
"""

import json
import sys

from . import fixtures

DEFAULT_SEED = 12345

REQUIRED = object()


def _is_real(v):
    """True for a finite int or float; a bool is not a number."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def int_at_least(least):
    """The rule for an integer >= `least`; a bool is not an integer."""
    return f"an integer >= {least}", lambda v: type(v) is int and v >= least


# The rules a config value can have, each (what a value must be, test).
POSITIVE = ("a positive number", lambda v: _is_real(v) and v > 0)
NONNEGATIVE = ("a nonnegative number", lambda v: _is_real(v) and v >= 0)
UNIT = ("a number in (0, 1]", lambda v: _is_real(v) and 0 < v <= 1)
FRACTION = ("a number in [0, 1]", lambda v: _is_real(v) and 0 <= v <= 1)
BELOW_ONE = ("a number in [0, 1)", lambda v: _is_real(v) and 0 <= v < 1)
PATH = ("a nonempty path string", lambda v: type(v) is str and v != "")
PUMPING = ("'cw' or 'pulsed'", lambda v: v in ("cw", "pulsed"))
WEIGHTS = ("two nonnegative numbers with a positive sum", lambda v: type(v) in (list, tuple)
           and len(v) == 2 and all(_is_real(w) and w >= 0 for w in v) and sum(v) > 0)
MODE_ORDERS = ("a nonempty list of distinct integers >= 1", lambda v: type(v) is list and v != []
               and all(type(p) is int and p >= 1 for p in v) and len(set(v)) == len(v))
CHAIN = ("a nonempty JSON object of stage efficiencies in (0, 1]", lambda v: type(v) is dict
         and v != {} and all(_is_real(e) and 0 < e <= 1 for e in v.values()))
PATHS = ("free_space", "cavity_planar", "cavity_fiber")

# Every config key a command reads, as (default, rule); a nested dict is
# a section, and a one-item list holding a section is a table: a JSON
# array of such rows, each of which must give every key.  A REQUIRED key
# has no default: reading it from a config that lacks it is a config
# error.  Where the default is None, the one command that reads the key
# derives the value (cavity.mode_orders: every row of cavity.modes;
# dw_window_uev: 3 ZPL widths) or, for an input file, takes the synthetic
# path.  Tables S1-S3 of the paper are cavity.modes, budget.extraction
# with budget.chains (the stages after extraction, in product order) and
# budget.overall_quoted.
CONFIG_KEYS = {
    "seed": (DEFAULT_SEED, int_at_least(0)),
    "emitter": {
        "wavelength_nm": (REQUIRED, POSITIVE), "zpl_fwhm_uev": (REQUIRED, POSITIVE),
        "debye_waller": (REQUIRED, UNIT),
        "sideband": {"exponent": (1.0, POSITIVE), "cutoff_uev": (1000.0, POSITIVE)},
        "temperature_k": (4.2, NONNEGATIVE), "lifetime_fs_ps": (REQUIRED, POSITIVE),
        "eta_qy": (0.01, FRACTION), "decay_weights": ((2.0, 1.0), WEIGHTS),
        "tau_short_ps": (23.0, POSITIVE)},
    "cavity": {"refractive_index": (1.0, POSITIVE), "radius_of_curvature_um": (10.0, POSITIVE),
               "mode_order": (6, int_at_least(1)), "mode_orders": (None, MODE_ORDERS),
               "modes": [{"p": (REQUIRED, int_at_least(1)), "v_eff_lambda3": (REQUIRED, POSITIVE),
                          "q_th": (REQUIRED, POSITIVE), "q_exp": (REQUIRED, POSITIVE),
                          "p_subs_pct": (REQUIRED, POSITIVE),
                          "p_fiber_pct": (REQUIRED, POSITIVE)}]},
    "measured": {
        "flux_ratio_sat": (REQUIRED, POSITIVE), "decay_ratio": (REQUIRED, POSITIVE),
        "g_spectral_max_uev": (25.0, NONNEGATIVE), "f_rep_hz": (REQUIRED, POSITIVE),
        "ccd_rate_at_saturation_per_s": (REQUIRED, POSITIVE),
        "photons_into_fiber_per_ccd_count": (REQUIRED, POSITIVE),
        "detected_port_ratio_sspd_over_ccd": (REQUIRED, POSITIVE),
        "exit_ratio_fiber_over_planar": (REQUIRED, POSITIVE),
        "cryostat_optics_quoted": (REQUIRED, FRACTION)},
    "g2_scheme": {"pump_uev": (REQUIRED, POSITIVE), "k_shelve_uev": (0.0, NONNEGATIVE),
                  "k_deshelve_uev": (0.0, NONNEGATIVE), "background": (0.0, BELOW_ONE),
                  "irf_fwhm_ps": (32.0, NONNEGATIVE)},
    "analysis": {
        "spectrum": {"half_span_uev": (6000.0, POSITIVE), "step_uev": (4.0, POSITIVE),
                     "dw_window_uev": (None, POSITIVE)},
        "brightness": {"half_span_uev": (6000.0, POSITIVE), "step_uev": (4.0, POSITIVE),
                       "envelope_csv": (None, PATH), "noise_frac": (0.01, NONNEGATIVE)},
        "lifetime": {"irf_fwhm_ps": (32.0, NONNEGATIVE), "fs_trace_csv": (None, PATH),
                     "cavity_trace_csv": (None, PATH), "peak_counts": (1e5, POSITIVE),
                     "bin_ps": (4.0, POSITIVE)},
        "saturation": {"mode": ("pulsed", PUMPING), "curve_csv": (None, PATH),
                       "i_sat": (1768.0, POSITIVE), "p_sat": (1000.0, POSITIVE),
                       "noise_frac": (0.01, NONNEGATIVE), "n_points": (25, int_at_least(3))},
        "g2": {"tau_span_ps": (60000.0, POSITIVE), "tau_step_ps": (4.0, POSITIVE)}},
    "budget": {"extraction": {path: (REQUIRED, UNIT) for path in PATHS},
               "chains": {path: (REQUIRED, CHAIN) for path in PATHS},
               "overall_quoted": {path: (REQUIRED, UNIT) for path in PATHS}},
}


class ConfigError(Exception):
    """Invalid configuration or input contents (exit 2)."""


class _Section(dict):
    """One checked config section; `prefix` is its dotted path plus "."."""

    def __init__(self, prefix):
        super().__init__()
        self.prefix = prefix

    def __missing__(self, key):
        raise ConfigError(f"config key {self.prefix}{key} is required")


def merge_patch(target, patch):
    """`patch` applied to `target` as a JSON Merge Patch (RFC 7396),
    changing neither.  An object patch merges key by key, a null member
    removing its key; any other patch replaces the target whole."""
    if not isinstance(patch, dict):
        return patch
    out = dict(target) if isinstance(target, dict) else {}
    for key, value in patch.items():
        if value is None:
            out.pop(key, None)
        else:
            out[key] = merge_patch(out.get(key), value)
    return out


def check_value(name, value, rule):
    """Raise a ConfigError naming `name` unless `value` passes `rule`."""
    what, test = rule
    if not test(value):
        raise ConfigError(f"{name} must be {what}, got {value!r}")


def _checked(tree, table=CONFIG_KEYS, prefix=""):
    """Copy of a config (sub)tree with every key checked against `table`
    and every absent default filled in.  Keys must be in the table,
    sections JSON objects, tables nonempty JSON arrays of complete rows,
    and values must pass their rule."""
    for key in tree:
        if key not in table:
            raise ConfigError(f"unknown config key {prefix}{key}")
    out = _Section(prefix)
    for key, entry in table.items():
        path = prefix + key
        if isinstance(entry, dict):
            value = tree[key] if key in tree else {}
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path} must be a JSON object")
            out[key] = _checked(value, entry, path + ".")
            continue
        if isinstance(entry, list):
            if key in tree:
                out[key] = _checked_rows(tree[key], entry[0], path)
            continue
        default, rule = entry
        if key in tree:
            check_value(f"config key {path}", tree[key], rule)
            out[key] = tree[key]
        elif default is not REQUIRED:
            out[key] = default
    return out


def _checked_rows(rows, row_table, path):
    """The checked rows of the table at `path`: each row is a section of
    `row_table` that must give every key, and errors name `path[i].key`."""
    if type(rows) is not list or rows == []:
        raise ConfigError(f"config key {path} must be a nonempty JSON array of rows")
    out = []
    for index, row in enumerate(rows):
        name = f"{path}[{index}]"
        if not isinstance(row, dict):
            raise ConfigError(f"config section {name} must be a JSON object")
        out.append(_checked(row, row_table, name + "."))
        for key in row_table:
            if key not in out[-1]:
                raise ConfigError(f"config key {name}.{key} is required")
    return out


def _unique_keys(pairs):
    """The object_pairs_hook of every config parse: a JSON object that
    gives a key twice is a ConfigError naming it, not its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"config key {key!r} appears more than once in one JSON object")
        obj[key] = value
    return obj


def _parse(text):
    """The JSON object of a config text (the paper fixture or a config
    file)."""
    try:
        tree = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a JSON object")
    return tree


def load(fixture, text=None):
    """The checked config of the named fixture set (None: none) and a
    config text (None: none), every default filled in.  Each document is
    parsed and applied, as a JSON Merge Patch, to the result so far,
    starting from {}: a null member removes its key, so it reaches the
    key's default."""
    tree = {}
    if fixture is not None:
        if fixture != "paper":
            raise ConfigError(f"unknown fixture set {fixture!r} (only 'paper')")
        tree = merge_patch(tree, _parse(fixtures.paper_defaults()))
    if text is not None:
        tree = merge_patch(tree, _parse(text))
    if not tree:
        raise ConfigError("no configuration given (use --config and/or --fixture paper)")
    return _checked(tree)


def emitter_from_config(config):
    """The paper's emitter (spectral parameters only) from a checked config."""
    from . import spectra
    from .units import energy_from_wavelength

    em = config["emitter"]
    return spectra.EmitterModel(
        zpl_energy_uev=energy_from_wavelength(em["wavelength_nm"]),
        zpl_fwhm_uev=em["zpl_fwhm_uev"],
        debye_waller=em["debye_waller"],
        sideband=spectra.SidebandShape(em["sideband"]["exponent"],
                                       em["sideband"]["cutoff_uev"]),
        temperature_k=em["temperature_k"],
    )


def scheme_from_config(config):
    """The paper's three-level g2 scheme from a checked config."""
    from . import dynamics
    from .units import rate_from_lifetime

    g2cfg = config["g2_scheme"]
    return dynamics.LevelScheme(
        pump_uev=g2cfg["pump_uev"],
        gamma_total_uev=rate_from_lifetime(config["emitter"]["lifetime_fs_ps"]),
        k_shelve_uev=g2cfg["k_shelve_uev"], k_deshelve_uev=g2cfg["k_deshelve_uev"],
        background=g2cfg["background"])


def chains_from_config(config):
    """The collection paths' stage chains after extraction (table S2)
    from a checked config, as {path: budget.EfficiencyChain}."""
    from . import budget

    chains = config["budget"]["chains"]
    return {path: budget.EfficiencyChain(path, tuple(
                budget.Stage(name, efficiency) for name, efficiency in chains[path].items()))
            for path in PATHS}


def mode_rows(config, key):
    """[(p, cavity.modes row)] for the mode orders of cavity.<key>, which
    is mode_order (one order) or mode_orders (a list; None: every row, by
    p).  A p that two rows give is a ConfigError."""
    cav = config["cavity"]
    table = {}
    for index, row in enumerate(cav["modes"]):
        if row["p"] in table:
            raise ConfigError(f"config key cavity.modes[{index}].p: mode order {row['p']} "
                              "appears more than once")
        table[row["p"]] = row
    orders = cav[key]
    if orders is None:
        orders = sorted(table)
    elif type(orders) is int:
        orders = [orders]
    for p in orders:
        if p not in table:
            raise ConfigError(f"config key cavity.{key}: mode order {p!r} "
                              "is not in cavity.modes")
    return [(p, table[p]) for p in orders]
