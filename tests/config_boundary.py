"""The boundary table of the config language, run as one child process:

    python tests/config_boundary.py

Each case overlays one value on one key of `--fixture paper` and runs,
through `cli.main`, a command that reads that key.  The values of a key
are those just inside and just outside its rule in `config.CONFIG_KEYS`,
plus SPECIALS; a table cell is overlaid in the first row.  A value
outside the rule must exit 2 naming the key, and a run that exits 0
must write only finite numbers to stdout and to its SVG points.  The
values are derived from each rule's description, never from its test,
so that a test looser than its description shows as a failed case.
The readers of each key are recorded by running each command once on
the paper config; an overlay that leaves the paper config as it is,
such as `null` on a key with a default, is that run and is not run
again.  The process caps its address space at about 2 GB, so a grid
that no limit stopped fails fast instead of swapping.  It prints one
JSON object: the number of cases run, and each case that broke a rule
of `problems`.
"""

import contextlib
import io
import json
import math
import os
import re
import resource
import sys
import tempfile

ADDRESS_SPACE_BYTES = 2 * 1024 ** 3

TINY, HUGE = 5e-324, sys.float_info.max
SPECIALS = [0, -0.0, 1e-300, 1e300, math.nan, math.inf, True, "1", [], None]
# the SPECIALS that no rule admits; a path may be "1"
UNADMITTED = [math.nan, math.inf, True, []]
PATH = "a nonempty path string"

# the number rules, by their descriptions, as intervals
INTERVALS = {"a positive number": f"(0, {HUGE!r}]", "a nonnegative number": f"[0, {HUGE!r}]"}

# (just inside, just outside) the other rules, by their descriptions
BOUNDARIES = {
    PATH: (["missing.csv"], [""]),
    "'cw' or 'pulsed'": (["cw", "pulsed"], ["CW"]),
    "two nonnegative numbers with a positive sum": (
        [[0.0, TINY], [TINY, 0.0]], [[0.0, 0.0], [-TINY, 1.0], [1.0]]),
    "a nonempty JSON object of stage efficiencies in (0, 1]": (
        [{"stage": TINY}, {"stage": 1.0}], [{}, {"stage": 0.0}, {"stage": 1.5}]),
}


def _number(text):
    """A bound as a rule states it: a float or a power of two."""
    base, _, exponent = text.partition("**")
    return float(base) ** int(exponent) if exponent else float(base)


def boundary_values(what):
    """(inside, outside): the values just inside and just outside the rule
    `what`; outside also holds the SPECIALS that the rule does not admit."""
    unadmitted = UNADMITTED + ([] if what == PATH else ["1"])
    if what in BOUNDARIES:
        inside, outside = BOUNDARIES[what]
        return inside, outside + unadmitted
    what = INTERVALS.get(what, what)
    integer = re.fullmatch(r"an integer >= (\d+)", what)
    if integer:
        least = int(integer.group(1))
        return [least], [least - 1, least + 0.5] + unadmitted
    least = re.fullmatch(r"a number >= (\S+)", what)
    if least:
        what = f"[{least.group(1)}, {HUGE!r}]"
    opens, lo, hi, closes = re.fullmatch(r"(?:a number in )?([\[(])(\S+), (\S+)([\])])",
                                         what).groups()
    lo, hi = _number(lo), _number(hi)
    down, up = (math.nextafter(lo, -math.inf), lo) if opens == "[" \
        else (lo, math.nextafter(lo, math.inf))
    top, over = (hi, math.nextafter(hi, math.inf)) if closes == "]" \
        else (math.nextafter(hi, -math.inf), hi)
    return [up, top], [down] + ([over] if over < math.inf else []) + unadmitted


def leaves(table, prefix=""):
    """(dotted key, rule) of every config value; a table's cells are
    those of its first row."""
    for key, entry in table.items():
        if isinstance(entry, list):
            yield from leaves(entry[0], f"{prefix}{key}[0].")
        elif isinstance(entry, dict):
            yield from leaves(entry, f"{prefix}{key}.")
        else:
            yield prefix + key, entry[1]


def readers(cli, config, out):
    """{dotted key: [command]} of the config values that each command's
    run reads outside config.load, which reads them all; recorded from
    one run of each on the paper config."""
    read, loading = {}, []
    section, real_load = config._Section, config.load
    real_getitem = section.__getitem__

    def recording(self, key):
        if not loading:
            read.setdefault(self.prefix + key, set()).add(command)
        return real_getitem(self, key)

    def load(*args):
        loading.append(True)
        try:
            return real_load(*args)
        finally:
            loading.pop()

    section.__getitem__, config.load = recording, load
    try:
        for command in cli._COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([command, "--fixture", "paper", "--out", out]) == 0
    finally:
        del section.__getitem__
        config.load = real_load
    return {key: sorted(names) for key, names in read.items()}


def overlay(paper_rows, key, value):
    """The config overlay that sets one dotted key to `value`."""
    tree = out = {}
    *sections, last = key.split(".")
    for name in sections:
        if name == "modes[0]":
            rows = [dict(row) for row in paper_rows]
            tree["modes"] = rows
            tree = rows[0]
        else:
            tree = tree.setdefault(name, {})
    tree[last] = value
    return out


def _loads(config, text):
    """The checked paper config with the overlay `text`; None if it is not
    valid."""
    try:
        return config.load("paper", text)
    except config.ConfigError:
        return None


def _refuse(constant):
    raise ValueError(f"non-finite number {constant}")


def non_finite(stdout, out):
    """The outputs of a run that hold a non-finite number: its stdout
    report, which JSON allows no NaN or Infinity in, and the points of the
    SVG files in `out`."""
    found = []
    try:
        json.loads(stdout, parse_constant=_refuse)
    except ValueError:
        found.append("stdout")
    for name in sorted(os.listdir(out)):
        if name.endswith(".svg"):
            with open(os.path.join(out, name)) as fh:
                points = re.findall(r'points="([^"]*)"', fh.read())
            if not all(math.isfinite(float(v)) for p in points for v in re.split("[ ,]", p)):
                found.append(name)
    return found


def problems(key, code, err, out, outside_rule, stdout):
    """What a case's outcome breaks: a documented exit code, exit 2 for a
    value outside the key's rule (`outside_rule`), stderr holding JSON
    lines alone, an exit 2 naming the key, --out made only by a run that
    exits 0, and only finite numbers on the stdout and in the SVG points
    of a run that exits 0."""
    found = []
    if code not in (0, 2, 3, 4):
        found.append(f"exit {code}")
    elif outside_rule and code != 2:
        found.append(f"exit {code} for a value outside the rule")
    records = []
    for line in err.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            found.append(f"stderr line is not JSON: {line[:200]}")
    if code == 2:
        message = records[-1]["message"] if records else ""
        if key not in message and key.replace("[0]", "[*]") not in message:
            found.append(f"exit 2 message names no {key}: {message[:300]}")
    if os.path.exists(out) and code != 0:
        found.append(f"exit {code} wrote --out")
    if code == 0:
        found += [f"exit 0 wrote a non-finite number to {what}"
                  for what in non_finite(stdout, out)]
    return found


def main():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    from cavqed import cli, config

    paper = config.load("paper")
    paper_rows = paper["cavity"]["modes"]
    cases, failed = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        reads = readers(cli, config, os.path.join(tmp, "paper"))
        for key, (what, _) in leaves(config.CONFIG_KEYS):
            inside, outside = boundary_values(what)
            # {JSON text: (value, whether it is outside the rule)}
            values = {json.dumps(value): (value, False) for value in SPECIALS + inside}
            values.update((json.dumps(value), (value, True)) for value in outside)
            for value, outside_rule in values.values():
                text = json.dumps(overlay(paper_rows, key, value))
                if _loads(config, text) == paper:
                    continue
                path = os.path.join(tmp, "overlay.json")
                with open(path, "w") as fh:
                    fh.write(text)
                for command in reads.get(key, []):
                    cases += 1
                    out = os.path.join(tmp, f"out{cases}")
                    err, stdout = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
                        try:
                            code = cli.main([command, "--fixture", "paper", "--config", path,
                                             "--out", out])
                        except Exception as exc:  # a crash is a failed case
                            code = f"raised {type(exc).__name__}: {str(exc)[:200]}"
                    found = problems(key, code, err.getvalue(), out, outside_rule,
                                     stdout.getvalue())
                    if found:
                        failed.append({"command": command, "key": key,
                                       "value": json.dumps(value), "problems": found})
    print(json.dumps({"cases": cases, "failed": failed}))


if __name__ == "__main__":
    main()
