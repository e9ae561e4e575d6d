"""Metric names, units and the arithmetic that turns samples and spans
into them.  BENCHMARK.json lists the same names; bench_tests.py checks
that the two agree.
"""

import statistics

from workloads import COMMANDS

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# per-function spans: name -> extra counts recorded on the span
FUNCTIONS = {
    "svg.write_line_svg": ("points", "bytes"),
    "spectra.save_spectrum_csv": ("rows",),
    "cli.save_trace_csv": ("rows",),
    "spectra.convolve_lorentzian": ("points", "bytes_computed"),
    "spectra.build_fs_spectrum": (),
    "cqed.fit_g_from_envelope": ("evals",),
    "dynamics.fit_biexponential": (),
    "dynamics.fit_saturation": (),
    "dynamics.simulate_decay": (),
    "dynamics.g2_correlation": (),
    "spectra.load_spectrum_csv": (),
    "cli.load_trace_csv": (),
}
COUNT_UNITS = {"points": "count", "rows": "count", "evals": "count",
               "bytes": "bytes", "bytes_computed": "bytes"}
IMPORTS = ("total", "scipy_signal", "scipy_optimize", "numpy", "cavqed")


def _per_layer_units():
    units = {f"import.{name}_ms": "ms" for name in IMPORTS}
    for name, counts in FUNCTIONS.items():
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
        for count in counts:
            units[f"{name}.{count}"] = COUNT_UNITS[count]
    units.update({
        "io.write.files": "count", "io.write.bytes": "bytes", "io.write.ms": "ms",
        "io.read.bytes": "bytes", "io.read.ms": "ms",
        "cli.load_config.ms": "ms",
        "fixtures.calls": "count", "fixtures.ms": "ms",
        "cavity.ms": "ms", "budget.ms": "ms",
    })
    units.update({f"cli.{command}.ms_p50": "ms" for command in COMMANDS})
    units.update({
        "trace.coverage": "fraction",
        "trace.overhead_frac": "fraction",
        "trace.ops_per_s_untraced": "1/s",
        "trace.ops_per_s_traced": "1/s",
    })
    return units


PER_LAYER = _per_layer_units()


def tail(samples):
    """Tail latency: the 90th percentile, or with fewer than 100 samples
    the highest percentile that still has ten samples beyond it.

    Returns (value, percentile), by the nearest-rank rule: the sample
    with max(10, n/10) samples above it.  With ten samples or fewer the
    maximum is returned at percentile 100.  Percentiles above the 90th
    are left out: on a shared host the top two percent are single
    operations hit by scheduling stalls, and their count changes from run
    to run more than any regression bound allows.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    beyond = max(10, n // 10)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


def _union(intervals):
    total, end = 0.0, None
    for start, stop in sorted(intervals):
        if end is None or start > end:
            total += stop - start
            end = stop
        elif stop > end:
            total += stop - end
            end = stop
    return total


def self_times(spans):
    """(op, span id) -> duration minus the part of it its child spans cover.

    Span ids are unique within an operation only (cold-cli operations are
    separate processes), so spans are keyed by operation as well.
    """
    children = {}
    for _sid, parent, op, _name, t0, t1, _attrs in spans:
        children.setdefault((op, parent), []).append((t0, t1))
    out = {}
    for sid, _parent, op, _name, t0, t1, _attrs in spans:
        inside = [(max(a, t0), min(b, t1)) for a, b in children.get((op, sid), ())
                  if b > t0 and a < t1]
        out[op, sid] = (t1 - t0) - _union(inside)
    return out


def layer_metrics(spans, io_counts, op_seconds):
    """Per-layer metrics from the spans of the traced operations.

    `op_seconds` maps operation id -> latency measured by run.py; the
    coverage is the share of that time under any span other than
    `cli.main`, the entry point the operation itself calls.
    """
    own = self_times(spans)
    out = {name: 0.0 for name, unit in PER_LAYER.items()}
    per_command = {command: [] for command in COMMANDS}
    covered = {}
    for sid, _parent, op, name, t0, t1, attrs in spans:
        ms = 1e3 * own[op, sid]
        if name in FUNCTIONS:
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += ms
            for key, value in (attrs or {}).items():
                out[f"{name}.{key}"] += value
        module = name.split(".", 1)[0]
        if module == "fixtures":
            out["fixtures.calls"] += 1
            out["fixtures.ms"] += ms
        elif module in ("cavity", "budget"):
            out[f"{module}.ms"] += ms
        elif name == "cli.load_config":
            out["cli.load_config.ms"] += ms
        elif name.startswith("cli.cmd_"):
            per_command[name[len("cli.cmd_"):]].append(1e3 * (t1 - t0))
        if name != "cli.main" and op in op_seconds:
            covered.setdefault(op, []).append((t0, t1))
    for command, durations in per_command.items():
        if durations:
            out[f"cli.{command}.ms_p50"] = statistics.median(durations)
    out["io.write.files"] = io_counts["write.files"]
    out["io.write.bytes"] = io_counts["write.bytes"]
    out["io.write.ms"] = 1e3 * io_counts["write.s"]
    out["io.read.bytes"] = io_counts["read.bytes"]
    out["io.read.ms"] = 1e3 * io_counts["read.s"]
    total = sum(op_seconds.values())
    if total > 0:
        out["trace.coverage"] = sum(_union(v) for v in covered.values()) / total
    return out


def parse_importtime(stderr):
    """Import metrics (ms) from `python -X importtime -c 'import cavqed.cli'`.

    total, scipy_signal, scipy_optimize and numpy are cumulative times of
    the first import of that module (nested imports overlap); cavqed is the
    summed self time of the package's own modules.
    """
    wanted = {"cavqed.cli": "total", "scipy.signal": "scipy_signal",
              "scipy.optimize": "scipy_optimize", "numpy": "numpy"}
    out = {name: 0.0 for name in IMPORTS}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, module = line[len("import time:"):].split("|")
        module = module.strip()
        if module in wanted and out[wanted[module]] == 0.0:
            out[wanted[module]] = int(cumulative_us) / 1e3
        if module == "cavqed" or module.startswith("cavqed."):
            out["cavqed"] += int(self_us) / 1e3
    return out
