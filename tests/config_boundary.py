"""The boundary table of the config language, run as one child process:

    python tests/config_boundary.py

Each case overlays one value on one key of `--fixture paper` and runs,
through `cli.main`, a command that reads that key.  The values of a key
are those just inside and just outside its rule in `config.CONFIG_KEYS`,
plus SPECIALS; a table cell is overlaid in the first row.  The values
inside the path rule are input files derived from the paper run's own
(see input_files).  A value outside the rule must exit 2 naming the key,
or, for a file, starting with its path and ": ", and a run that exits 0
must write only finite numbers to stdout and to its SVG points.  The
values are derived from each rule's description, never from its test,
so that a test looser than its description shows as a failed case.
The readers of each key are recorded by running each command once on
the paper config; an overlay that leaves the paper config as it is,
such as `null` on a key with a default, is that run and is not run
again.  The process caps its address space at about 2 GB, so a grid
that no limit stopped fails fast instead of swapping.  It prints one
JSON object: the number of config and of input-file cases run, and
each case that broke a rule of `problems`.
"""

import contextlib
import filecmp
import io
import json
import math
import os
import re
import resource
import sys
import tempfile
from pathlib import Path

ADDRESS_SPACE_BYTES = 2 * 1024 ** 3

TINY, HUGE = 5e-324, sys.float_info.max
SPECIALS = [0, -0.0, 1e-300, 1e300, math.nan, math.inf, True, "1", [], None]
# the SPECIALS that no rule admits; a path may be "1"
UNADMITTED = [math.nan, math.inf, True, []]
PATH = "a nonempty path string"

# each input-file key: the paper run's file that its cases derive from,
# and their axes besides the file's own (see input_files); a lifetime
# trace is given with the paper run's other trace, and as one code path
# reads and fits both, the cavity trace takes only the axis of the pair
INPUT_FILES = {
    "analysis.brightness.envelope_csv": ("envelope_p6.csv", "rows grid values"),
    "analysis.lifetime.fs_trace_csv": ("decay_fs.csv", "rows grid values"),
    "analysis.lifetime.cavity_trace_csv": ("decay_cavity.csv", "pair"),
    "analysis.saturation.curve_csv": ("saturation.csv", "rows grid values"),
}

# the number rules, by their descriptions, as intervals
INTERVALS = {"a positive number": f"(0, {HUGE!r}]", "a nonnegative number": f"[0, {HUGE!r}]"}

# (just inside, just outside) the other rules, by their descriptions
BOUNDARIES = {
    PATH: ([], [""]),
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


def problems(named, code, err, out, expected, stdout):
    """What a case's outcome breaks: a documented exit code, the exit code
    `expected` (None: any documented one), stderr holding JSON lines
    alone, an exit 2 whose message passes `named`, --out made only by a
    run that exits 0, and only finite numbers on the stdout and in the SVG
    points of a run that exits 0."""
    found = []
    if code not in (0, 2, 3, 4):
        found.append(f"exit {code}")
    elif expected is not None and code != expected:
        found.append(f"exit {code}, not {expected}")
    records = []
    for line in err.splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            found.append(f"stderr line is not JSON: {line[:200]}")
    if code == 2:
        message = records[-1]["message"] if records else ""
        if not named(message):
            found.append(f"exit 2 message names no key or file at fault: {message[:300]}")
    if os.path.exists(out) and code != 0:
        found.append(f"exit {code} wrote --out")
    if code == 0:
        found += [f"exit 0 wrote a non-finite number to {what}"
                  for what in non_finite(stdout, out)]
    return found


def unlike_paper(out, paper):
    """The files in `out`, of a run on the paper run's own input file,
    that are not as the paper run wrote them in `paper`; a measured
    brightness report must hold the fit of the paper run's first mode."""
    names = os.listdir(out)
    _, differ, unmatched = filecmp.cmpfiles(out, paper, names, shallow=False)
    if "brightness_report.json" in differ:
        measured, synthetic = (json.loads(Path(where, "brightness_report.json").read_text())
                               for where in (out, paper))
        if measured["fit"] == synthetic["modes"][0]["fit"]:
            differ.remove("brightness_report.json")
    return sorted(differ + unmatched)


def input_files(command, text, axes):
    """(case, file bytes or None for no file, the exit it must end in or
    None for any documented one) of each file that `command` reads in
    place of the paper run's file `text`: the file's own cases (absence,
    header, encoding and a cell's text) and those of `axes`, among its
    row count, its grid, its middle row's value and, for a lifetime
    trace, its length, bin and start against the other trace ("pair").
    A case whose file is the paper run's is left out."""
    header, *rows = text.splitlines()
    xs, ys = zip(*(row.split(",") for row in rows))
    x0, span, mid = float(xs[0]), float(xs[-1]) - float(xs[0]), len(rows) // 2
    least = {"brightness": 2, "lifetime": 50, "saturation": 3}[command]
    # an envelope and a trace have an ascending uniform grid and no
    # negative value; a trace and a curve hold counts, a positive one and
    # none above 2**500; an envelope's grid resolves the ZPL, spanning 10
    # ZPL widths on each side at a step of at most a tenth of one
    grid, counts = command != "saturation", command != "brightness"
    resolved = command == "brightness"

    def csv(xs=xs, ys=ys, head=header):
        return ("\n".join([head, *map(",".join, zip(xs, ys))]) + "\n").encode()

    def middle(column, value):
        return (*column[:mid], value, *column[mid + 1:])

    def regrid(move):
        return csv([repr(move(float(x))) for x in xs])

    peak = max(map(float, ys))
    cases = {
        "file": [("base", text.encode(), 0), ("empty", b"", 4), ("missing", None, 4),
                 ("wrong header", csv(head="x,y"), 2), ("UTF-16", text.encode("utf-16"), 2),
                 *((y, csv(ys=middle(ys, y)), 2) for y in ("1.2.3", "nan", "inf", "1_0"))],
        "rows": [(f"{n} rows", csv(xs[:n], ys[:n]), 2 if n < least or resolved else None)
                 for n in (0, 1, 2, 49, 50)],
        "grid": [("descending", csv(xs[::-1], ys[::-1]), 2 if grid else None),
                 ("repeated x", csv(middle(xs, xs[mid - 1])), 2 if grid else None),
                 ("x -1", csv(middle(xs, "-1")), 2), ("x all 0", csv(["0"] * len(xs)), 2),
                 *((f"step times {k:g}", regrid(lambda x, k=k: x0 + (x - x0) * k),
                    2 if resolved else None) for k in (1e-3, 1e6)),
                 ("x shifted by 10 spans", regrid(lambda x: x + 10.0 * span),
                  2 if resolved else None)],
        "values": [("all 0", csv(ys=["0"] * len(ys)), 2 if counts else None),
                   ("one nonzero", csv(ys=middle(["0"] * len(ys), ys[mid])), None),
                   ("-1", csv(ys=middle(ys, "-1")), 2 if grid else 0),
                   ("5e-324", csv(ys=middle(ys, "5e-324")), None),
                   ("1e300", csv(ys=middle(ys, "1e300")), 2 if counts else None),
                   ("peak 2**500", csv(ys=[repr(float(y) / peak * 2.0 ** 500) for y in ys]), 0)],
        "pair": [("other length", csv(xs[:mid], ys[:mid]), 0),
                 ("other bin", regrid(lambda x: x0 + (x - x0) * 2.0), 0),
                 ("other start", regrid(lambda x: x + span / 2.0), 0)],
    }
    return [case for axis in ("file", *axes.split()) for case in cases[axis]
            if case[0] == "base" or case[1] != text.encode()]


def main():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))
    from cavqed import cli, config

    paper = config.load("paper")
    paper_rows = paper["cavity"]["modes"]
    cases, failed = {"config": 0, "input file": 0}, []
    with tempfile.TemporaryDirectory() as tmp:
        made = os.path.join(tmp, "paper")
        # a lifetime trace is read only on the measured path, which the
        # paper run does not take
        reads = {**readers(cli, config, made),
                 **{key: [key.split(".")[1]] for key in INPUT_FILES}}

        def run(kind, commands, key, value, text, expected, named, base=False):
            """Run the overlay `text` of `key` under each of `commands`; the
            `base` file of a key must also reproduce the paper run."""
            path = os.path.join(tmp, "overlay.json")
            with open(path, "w") as fh:
                fh.write(text)
            for command in commands:
                cases[kind] += 1
                out = os.path.join(tmp, f"out{sum(cases.values())}")
                err, stdout = io.StringIO(), io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
                    try:
                        code = cli.main([command, "--fixture", "paper", "--config", path,
                                         "--out", out])
                    except Exception as exc:  # a crash is a failed case
                        code = f"raised {type(exc).__name__}: {str(exc)[:200]}"
                found = problems(named, code, err.getvalue(), out, expected, stdout.getvalue())
                if base and code == 0:
                    found += [f"wrote another {name}" for name in unlike_paper(out, made)]
                if found:
                    failed.append({"command": command, "key": key, "value": value,
                                   "problems": found})

        for key, (what, _) in leaves(config.CONFIG_KEYS):
            inside, outside = boundary_values(what)
            # {JSON text: (value, whether it is outside the rule)}
            values = {json.dumps(value): (value, False) for value in SPECIALS + inside}
            values.update((json.dumps(value), (value, True)) for value in outside)
            for value, outside_rule in values.values():
                text = json.dumps(overlay(paper_rows, key, value))
                if _loads(config, text) != paper:
                    run("config", reads.get(key, []), key, json.dumps(value), text,
                        2 if outside_rule else None,
                        lambda message: key in message or key.replace("[0]", "[*]") in message)
            if what != PATH:
                continue
            # the values inside the path rule are files; a run is given the
            # paper run's file of each other input that its command reads
            [command], (base, axes) = reads[key], INPUT_FILES[key]
            given = {}
            for other, (name, _) in INPUT_FILES.items():
                if other != key and reads[other] == [command]:
                    given = overlay(paper_rows, other, os.path.join(made, name))
            with open(os.path.join(made, base)) as fh:
                files = input_files(command, fh.read(), axes)
            for index, (case, data, expected) in enumerate(files):
                path = os.path.join(tmp, f"{base}-{index}")
                if data is not None:
                    with open(path, "wb") as fh:
                        fh.write(data)
                text = json.dumps(config.merge_patch(given, overlay(paper_rows, key, path)))
                run("input file", [command], key, case, text, expected,
                    lambda message: message.startswith(f"{path}: "), case == "base")
    print(json.dumps({"cases": cases, "failed": failed}))


if __name__ == "__main__":
    main()
