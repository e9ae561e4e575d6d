"""The config language of `pl`: one JSON object whose keys, defaults and
rules are CONFIG_KEYS, and whose cross-key rules are RELATIONS.  `load`
builds a run's config and decides whether it can run: a config it returns
passes every check that the commands' library calls make on config values.
One walk of the config checks each value and records it by its dotted
name, and the relations read the values that walk records.
The `*_from_config` builders turn a checked config into the library's
value types; they import the physics modules in their own bodies, so at
module level this module loads only the standard library and the
numpy-free `budget`, `cavity`, `fixtures` and `units`.  The derivations
that a command and a relation share are stated once: `lifetime_bins` and
`synthetic_couplings` here, a chain's product in
`budget.chain_efficiency`, and the report quantities that the relations
keep finite in `cavity` and `budget`.
"""

import json
import math
import sys

from . import budget, cavity, fixtures
from .units import KB_UEV_PER_K, energy_from_wavelength, lifetime_from_rate, rate_from_lifetime

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
AT_LEAST_ONE = ("a number >= 1", lambda v: _is_real(v) and v >= 1)
UNIT = ("a number in (0, 1]", lambda v: _is_real(v) and 0 < v <= 1)
FRACTION = ("a number in [0, 1]", lambda v: _is_real(v) and 0 <= v <= 1)
BELOW_ONE = ("a number in [0, 1)", lambda v: _is_real(v) and 0 <= v < 1)
PATH = ("a nonempty path string", lambda v: type(v) is str and v != "")
PUMPING = ("'cw' or 'pulsed'", lambda v: v in ("cw", "pulsed"))
WEIGHTS = ("two nonnegative numbers with a positive sum", lambda v: type(v) in (list, tuple)
           and len(v) == 2 and all(_is_real(w) and w >= 0 for w in v) and sum(v) > 0)
CHAIN = ("a nonempty JSON object of stage efficiencies in (0, 1]", lambda v: type(v) is dict
         and v != {} and all(_is_real(e) and 0 < e <= 1 for e in v.values()))
# at most 2**53 counts, so that the Poisson draws of a synthetic decay
# trace stay within numpy's range
PEAK_COUNTS = ("a number in (0, 2**53]", lambda v: _is_real(v) and 0 < v <= 2 ** 53)
# at most 2**400 counts, so that a fit of the synthetic saturation curve
# keeps its squared residuals finite
I_SAT = ("a number in (0, 2**400]", lambda v: _is_real(v) and 0 < v <= 2 ** 400)
PATHS = ("free_space", "cavity_planar", "cavity_fiber")

# Every config key a command reads, as (default, rule); a nested dict is
# a section, and a one-item list holding a section is a table: a JSON
# array of such rows, each of which must give every key.  A REQUIRED key
# has no default: reading it from a config that lacks it is a config
# error.  Where the default is None, the one command that reads the key
# derives the value (dw_window_uev: 3 ZPL widths) or, for an input file,
# takes the synthetic path.  Tables S1-S3 of the paper are cavity.modes,
# budget.extraction with budget.chains (the stages after extraction, in
# product order) and budget.overall_quoted.
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
               "mode_order": (6, int_at_least(1)),
               "modes": [{"p": (REQUIRED, int_at_least(1)), "v_eff_lambda3": (REQUIRED, POSITIVE),
                          "q_th": (REQUIRED, POSITIVE), "q_exp": (REQUIRED, POSITIVE),
                          "p_subs_pct": (REQUIRED, POSITIVE),
                          "p_fiber_pct": (REQUIRED, POSITIVE)}]},
    "measured": {
        "flux_ratio_sat": (REQUIRED, POSITIVE), "decay_ratio": (REQUIRED, AT_LEAST_ONE),
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
        "brightness": {"envelope_csv": (None, PATH), "noise_frac": (0.01, FRACTION)},
        "lifetime": {"irf_fwhm_ps": (32.0, NONNEGATIVE), "fs_trace_csv": (None, PATH),
                     "cavity_trace_csv": (None, PATH), "peak_counts": (1e5, PEAK_COUNTS),
                     "bin_ps": (4.0, POSITIVE)},
        "saturation": {"mode": ("pulsed", PUMPING), "curve_csv": (None, PATH),
                       "i_sat": (1768.0, I_SAT), "p_sat": (1000.0, POSITIVE),
                       "noise_frac": (0.01, FRACTION), "n_points": (25, int_at_least(3))},
        "g2": {"tau_span_ps": (60000.0, POSITIVE), "tau_step_ps": (4.0, POSITIVE)}},
    "budget": {"extraction": {path: (REQUIRED, UNIT) for path in PATHS},
               "chains": {path: (REQUIRED, CHAIN) for path in PATHS},
               "overall_quoted": {path: (REQUIRED, UNIT) for path in PATHS}},
}


# the most points of any grid a command builds from config values: the
# spectrum, g2 and lifetime grids and the saturation curve
MAX_GRID_POINTS = 2 ** 22


def _grid_points(half_span, step):
    """Point count of spectra.energy_grid(centre, half_span, step); inf
    when it is past MAX_GRID_POINTS."""
    ratio = half_span / step
    return 2 * math.ceil(ratio) + 1 if ratio < MAX_GRID_POINTS else math.inf


def lifetime_bins(lifetime_ps, bin_ps):
    """(before, after): cmd_lifetime's synthetic time grid runs from bin
    -before to bin after of width `bin_ps`, from 160 ps before zero to 6
    free-space lifetimes after it."""
    tau = lifetime_from_rate(rate_from_lifetime(lifetime_ps))
    return math.ceil(160.0 / bin_ps), math.ceil(6.0 * tau / bin_ps)


def synthetic_couplings(g_max, ps, volumes):
    """The coupling g of each mode of cmd_brightness's synthetic
    envelopes, for modes of orders `ps` and volumes `volumes`:
    g_max sqrt(V_ref/V_eff), with V_ref the volume of the lowest order,
    or 0 when g_max is 0."""
    v_ref = volumes[ps.index(min(ps))]
    return [g_max * math.sqrt(v_ref / v) if g_max > 0 else 0.0 for v in volumes]


def _resolved(step, half_span, wavelength_nm):
    """True when an energy grid centred on the photon energy E keeps its
    step: each point is rounded by at most 2**-53 of its size, so with a
    step of at least 2**-21 (E + 2 half_span + 2 step) the steps stay
    uniform to spectra's 1e-9 and within 2**-31 of `step`."""
    return step * 2.0 ** 21 >= energy_from_wavelength(wavelength_nm) + 2.0 * (half_span + step)


def _wing_fits(exponent, cutoff, step, half_span):
    """True when the sideband J(d) = (d/cutoff)**exponent * exp(-d/cutoff)
    that spectra evaluates on a grid has factors and a product of at
    least e**-700, a normal float, one step from the ZPL, and its power
    stays below e**700 out to the grid's edge, half_span + step."""
    log_cutoff = math.log(cutoff)
    power = exponent * (math.log(step) - log_cutoff)
    edge = exponent * max(math.log(half_span + step) - log_cutoff, 0.0)
    decay = step / cutoff
    return power > -700.0 and decay < 700.0 and power - decay > -700.0 and edge < 700.0


def _within(factor, *rates):
    """True when the positive `rates` lie within `factor` of each other."""
    positive = [rate for rate in rates if rate > 0]
    return max(positive) <= factor * min(positive)


# The rules between config values, each (keys, what, test): a config
# can run only if test(*values) is true for the values at `keys`, which
# are the names under which `_checked` records each value it checks.  A
# relation is skipped when one of its keys is absent, as the command
# that reads that key requires it.  A key's `[]` row makes the relation
# one per row of that table, and a `[*]` row gives the column of every
# row as a list.  A test states a library check on config values, in
# the library's own arithmetic where it computes one.  The energy grid
# of analysis.spectrum is that of both spectrum and brightness, whose
# checks are those of spectra.energy_grid, build_fs_spectrum and
# convolve_lorentzian.
RELATIONS = [
    (("cavity.modes[*].p",), "the mode orders p must be distinct",
     lambda ps: len(set(ps)) == len(ps)),
    (("cavity.mode_order", "cavity.modes[*].p"), "mode_order must be one of the p",
     lambda order, ps: order in ps),
    (("cavity.modes[].q_exp", "cavity.modes[].q_th"), "q_exp must be below q_th",
     lambda q_exp, q_th: q_exp < q_th),
    (("cavity.modes[].p", "emitter.wavelength_nm", "cavity.radius_of_curvature_um"),
     "the cavity length p*wavelength_nm/2 must be below radius_of_curvature_um",
     lambda p, wl, radius: p * wl * 1e-3 / 2.0 < radius),
    (("cavity.refractive_index", "emitter.wavelength_nm", "cavity.modes[].v_eff_lambda3"),
     "v_eff_lambda3 * refractive_index**3 and (wavelength_nm/1000/refractive_index)**3 "
     "must be positive and finite",
     lambda n, wl, v: 0 < v * n ** 3 < math.inf and 0 < (wl * 1e-3 / n) ** 3 < math.inf),
    (("emitter.wavelength_nm",), "the photon energy hc/wavelength_nm must be finite",
     lambda wl: energy_from_wavelength(wl) < math.inf),
    (("emitter.temperature_k",), "k_B temperature_k must be finite",
     lambda t: KB_UEV_PER_K * t < math.inf),
    (("analysis.spectrum.half_span_uev", "analysis.spectrum.step_uev"),
     f"the grid must have at most {MAX_GRID_POINTS} points",
     lambda h, s: _grid_points(h, s) <= MAX_GRID_POINTS),
    (("analysis.spectrum.step_uev", "emitter.zpl_fwhm_uev"),
     "step_uev must be at most zpl_fwhm_uev/10", lambda s, fwhm: s <= fwhm / 10.0),
    (("analysis.spectrum.half_span_uev", "emitter.zpl_fwhm_uev"),
     "half_span_uev must be at least 10 zpl_fwhm_uev", lambda h, fwhm: h >= 10.0 * fwhm),
    (("analysis.spectrum.step_uev", "analysis.spectrum.half_span_uev", "emitter.wavelength_nm"),
     "step_uev must be at least 2**-21 (hc/wavelength_nm + 2 half_span_uev + 2 step_uev)",
     _resolved),
    (("emitter.debye_waller", "emitter.sideband.exponent", "emitter.sideband.cutoff_uev",
      "analysis.spectrum.step_uev", "analysis.spectrum.half_span_uev"),
     "below a debye_waller of 1, the sideband must be a normal float one step from the "
     "ZPL and finite to the grid's edge",
     lambda dw, exponent, cutoff, s, h: dw == 1 or _wing_fits(exponent, cutoff, s, h)),
    (("analysis.spectrum.step_uev", "emitter.wavelength_nm", "cavity.modes[].q_exp"),
     "step_uev must be at most kappa/5, with the cavity linewidth kappa = "
     "hc/wavelength_nm/q_exp at most 2**1000",
     lambda s, wl, q: s <= energy_from_wavelength(wl) / q / 5.0
     and energy_from_wavelength(wl) / q <= 2.0 ** 1000),
    (("analysis.spectrum.dw_window_uev", "analysis.spectrum.half_span_uev"),
     "dw_window_uev must be at most half_span_uev", lambda w, h: w is None or w <= h),
    (("measured.g_spectral_max_uev", "emitter.lifetime_fs_ps", "cavity.modes[*].p",
      "cavity.modes[*].v_eff_lambda3"),
     "a = g**2 * lifetime_fs_ps/hbar must be in [2**-900, 2**900] for the coupling g "
     "of each mode's synthetic envelope, or g_spectral_max_uev 0",
     lambda g_max, tau, ps, volumes: g_max == 0 or all(
         2.0 ** -900 <= g ** 2 / rate_from_lifetime(tau) <= 2.0 ** 900
         for g in synthetic_couplings(g_max, ps, volumes))),
    (("emitter.lifetime_fs_ps", "analysis.lifetime.bin_ps"),
     f"the synthetic decay grid must have 50 to {MAX_GRID_POINTS} bins",
     lambda tau, b: 50 <= sum(lifetime_bins(tau, b)) + 1 <= MAX_GRID_POINTS),
    (("emitter.lifetime_fs_ps", "measured.decay_ratio", "analysis.lifetime.bin_ps"),
     "the cavity lifetime lifetime_fs_ps/decay_ratio must be at least bin_ps/10, the "
     "shortest lifetime a biexponential fit takes",
     lambda tau, ratio, b: tau / ratio >= b / 10.0),
    (("emitter.decay_weights", "analysis.lifetime.peak_counts"),
     "the larger decay weight must be at least 2**-900 peak_counts, so that the "
     "synthetic traces' Poisson means stay finite",
     lambda weights, peak: max(weights) >= peak * 2.0 ** -900),
    (("analysis.lifetime.fs_trace_csv", "analysis.lifetime.cavity_trace_csv"),
     "give both measured traces or neither", lambda fs, cav: (fs is None) == (cav is None)),
    (("analysis.saturation.n_points",), f"the curve must have at most {MAX_GRID_POINTS} points",
     lambda n: n <= MAX_GRID_POINTS),
    (("analysis.saturation.p_sat",), "the curve's powers p_sat/30 to 30 p_sat must be "
     "positive and finite", lambda p_sat: p_sat / 30.0 > 0 and 30.0 * p_sat < math.inf),
    (("budget.overall_quoted.free_space", "measured.f_rep_hz"),
     "overall_quoted.free_space * f_rep_hz must be positive", lambda eta, f_rep: eta * f_rep > 0),
    (("analysis.g2.tau_span_ps", "analysis.g2.tau_step_ps"),
     f"the delay grid must have 3 to {MAX_GRID_POINTS} points",
     lambda span, step: 3 <= _grid_points(span, step) <= MAX_GRID_POINTS),
    (("analysis.g2.tau_span_ps", "analysis.g2.tau_step_ps"),
     "the delay grid's extent 2 ceil(tau_span_ps/tau_step_ps) tau_step_ps must be finite",
     lambda span, step: (_grid_points(span, step) - 1) * step < math.inf),
    (("g2_scheme.k_shelve_uev", "g2_scheme.k_deshelve_uev"),
     "shelving (k_shelve_uev > 0) needs deshelving (k_deshelve_uev > 0)",
     lambda on, off: on == 0 or off > 0),
    (("g2_scheme.pump_uev", "emitter.lifetime_fs_ps", "g2_scheme.k_shelve_uev",
      "g2_scheme.k_deshelve_uev"),
     "the positive rates pump_uev, hbar/lifetime_fs_ps, k_shelve_uev and k_deshelve_uev "
     "must lie within a factor 1e12 of each other",
     lambda pump, tau, on, off: _within(1e12, pump, rate_from_lifetime(tau), on, off)),
    *(((f"budget.extraction.{path}", f"budget.chains.{path}"),
       "the extraction times the product of the stages must be positive",
       lambda extraction, chain: extraction * budget.chain_efficiency(chain) > 0)
      for path in PATHS),
    *(((f"cavity.modes[].{pct}", f"budget.chains.{path}"),
       f"{pct}/100 times the product of the {path} stages must be positive",
       lambda pct, chain: pct / 100.0 * budget.chain_efficiency(chain) > 0)
      for pct, path in (("p_subs_pct", "cavity_planar"), ("p_fiber_pct", "cavity_fiber"))),
    (("budget.chains.cavity_planar", "budget.chains.cavity_fiber"),
     "exactly one must list the stage 'cryostat_optics'",
     lambda planar, fiber: ("cryostat_optics" in planar) != ("cryostat_optics" in fiber)),
    # the numbers a report holds must be finite: JSON has no NaN or Infinity
    (("emitter.wavelength_nm", "cavity.refractive_index", "cavity.radius_of_curvature_um",
      "cavity.modes[].p"), "the Gaussian mode volume of each mode must be finite",
     lambda wl, n, radius, p: cavity.mode_volume_gaussian(wl, n, radius, p) < math.inf),
    (("measured.flux_ratio_sat", "measured.decay_ratio", "emitter.debye_waller"),
     "the solved F_P = flux_ratio_sat/debye_waller and eta_qy = (decay_ratio - 1)/"
     "(debye_waller F_P) must be finite",
     lambda flux, decay, dw: max(cavity.solve_fp_and_qy(flux, decay, dw)) < math.inf),
    (("measured.ccd_rate_at_saturation_per_s", "measured.photons_into_fiber_per_ccd_count"),
     "the fiber flux, their product, must be finite",
     lambda rate, photons: budget.fiber_flux_from_ccd(rate, photons) < math.inf),
    (("budget.chains.cavity_fiber", "budget.chains.cavity_planar", "cavity.mode_order",
      "cavity.modes[*].p", "cavity.modes[*].p_fiber_pct", "cavity.modes[*].p_subs_pct",
      "measured.exit_ratio_fiber_over_planar"),
     "the cryostat_optics efficiency solved from the mode_order row's exits must be finite",
     lambda fiber, planar, order, ps, fiber_pct, subs_pct, ratio: budget.calibrate_unknown_stage(
         fiber, planar, fiber_pct[ps.index(order)] / 100.0, subs_pct[ps.index(order)] / 100.0,
         ratio, "cryostat_optics")[0] < math.inf),
    (("analysis.saturation.mode", "analysis.saturation.i_sat", "budget.overall_quoted.free_space",
      "measured.f_rep_hz"),
     "in pulsed mode, eta_qy = i_sat/(overall_quoted.free_space f_rep_hz) must be finite",
     lambda mode, i_sat, eta, f_rep: mode != "pulsed" or i_sat / (eta * f_rep) < math.inf),
]


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


def _known(tree, table=CONFIG_KEYS, prefix=""):
    """`tree`, a parsed config document, once every key it gives, in its
    sections and table rows and null members included, is a key of
    `table`; the first that is not is a ConfigError."""
    for key, value in tree.items():
        if key not in table:
            raise ConfigError(f"unknown config key {prefix}{key}")
        entry = table[key]
        if isinstance(entry, dict) and isinstance(value, dict):
            _known(value, entry, f"{prefix}{key}.")
        elif isinstance(entry, list) and isinstance(value, list):
            for index, row in enumerate(value):
                if isinstance(row, dict):
                    _known(row, entry[0], f"{prefix}{key}[{index}].")
    return tree


def _checked(tree, flat, table=CONFIG_KEYS, prefix=""):
    """Copy of a config (sub)tree, whose keys `_known` has checked, with
    every absent default filled in.  Sections must be JSON objects,
    tables nonempty JSON arrays of rows that give every key, and values
    must pass their rule.  Each value is also recorded in `flat` under
    the name RELATIONS reads it by: `a.b`, a table's rows at `t`, each
    cell at `t[i].c` and each column, as a list, at `t[*].c`."""
    out = _Section(prefix)
    for key, entry in table.items():
        path = prefix + key
        if isinstance(entry, dict):
            value = tree[key] if key in tree else {}
            if not isinstance(value, dict):
                raise ConfigError(f"config section {path} must be a JSON object")
            out[key] = _checked(value, flat, entry, path + ".")
        elif isinstance(entry, list):
            if key not in tree:
                continue
            rows = tree[key]
            if type(rows) is not list or rows == []:
                raise ConfigError(f"config key {path} must be a nonempty JSON array of rows")
            out[key] = flat[path] = []
            for index, row in enumerate(rows):
                name = f"{path}[{index}]"
                if not isinstance(row, dict):
                    raise ConfigError(f"config section {name} must be a JSON object")
                out[key].append(_checked(row, flat, entry[0], name + "."))
                for cell in entry[0]:
                    if cell not in out[key][-1]:
                        raise ConfigError(f"config key {name}.{cell} is required")
            for cell in entry[0]:
                flat[f"{path}[*].{cell}"] = [row[cell] for row in out[key]]
        else:
            default, rule = entry
            if key in tree:
                check_value(f"config key {path}", tree[key], rule)
                out[key] = flat[path] = tree[key]
            elif default is not REQUIRED:
                out[key] = flat[path] = default
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
    file), every key of which is known."""
    try:
        tree = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a JSON object")
    return _known(tree)


def load(fixture, text=None):
    """The checked config of the named fixture set (None: none) and a
    config text (None: none), every default filled in.  Each document is
    parsed, its keys checked, and applied, as a JSON Merge Patch, to the
    result so far, starting from {}: a null member removes its key, so it
    reaches the key's default, and a null on an unknown key is an error.
    Every relation of RELATIONS holds on the result: a config that `load`
    returns is one that every command can run."""
    tree = {}
    if fixture is not None:
        if fixture != "paper":
            raise ConfigError(f"unknown fixture set {fixture!r} (only 'paper')")
        tree = merge_patch(tree, _parse(fixtures.paper_defaults()))
    if text is not None:
        tree = merge_patch(tree, _parse(text))
    if not tree:
        raise ConfigError("no configuration given (use --config and/or --fixture paper)")
    flat = {}
    checked = _checked(tree, flat)
    for relation in RELATIONS:
        _check_relation(flat, *relation)
    return checked


def _check_relation(flat, keys, what, test):
    """Raise a ConfigError naming every key of a relation whose test
    fails on the values that `_checked` recorded in `flat`; a relation
    with `[]` keys is checked for each row of that table."""
    table = next((key.partition("[]")[0] for key in keys if "[]" in key), None)
    for index in range(len(flat.get(table, ())) if table else 1):
        names = [key.replace("[]", f"[{index}]") for key in keys]
        if not all(name in flat for name in names):
            continue
        values = [flat[name] for name in names]
        try:
            holds = test(*values)
        except OverflowError:  # past the float range, or the ceil of inf
            holds = False
        if not holds:
            raise ConfigError(f"config key{'s' if len(names) > 1 else ''} {_and(names)}: "
                              f"{what}, got {_and(map(repr, values))}")


def _and(items):
    """'a', 'a and b' or 'a, b and c'."""
    *rest, last = items
    return f"{', '.join(rest)} and {last}" if rest else last


def emitter_from_config(config):
    """The paper's emitter (spectral parameters only) from a checked config."""
    from . import spectra

    em = config["emitter"]
    return spectra.EmitterModel(
        zpl_energy_uev=energy_from_wavelength(em["wavelength_nm"]),
        zpl_fwhm_uev=em["zpl_fwhm_uev"],
        debye_waller=em["debye_waller"],
        sideband_exponent=em["sideband"]["exponent"],
        sideband_cutoff_uev=em["sideband"]["cutoff_uev"],
        temperature_k=em["temperature_k"],
    )


def scheme_from_config(config):
    """The paper's three-level g2 scheme from a checked config."""
    from . import dynamics

    g2cfg = config["g2_scheme"]
    return dynamics.LevelScheme(
        pump_uev=g2cfg["pump_uev"],
        gamma_total_uev=rate_from_lifetime(config["emitter"]["lifetime_fs_ps"]),
        k_shelve_uev=g2cfg["k_shelve_uev"], k_deshelve_uev=g2cfg["k_deshelve_uev"],
        background=g2cfg["background"])


def mode_rows(config):
    """The rows of cavity.modes, sorted by their order p."""
    return sorted(config["cavity"]["modes"], key=lambda row: row["p"])


def mode_row(config):
    """The row of cavity.modes whose p is cavity.mode_order; `load` has
    checked that there is exactly one."""
    cav = config["cavity"]
    return next(row for row in cav["modes"] if row["p"] == cav["mode_order"])
