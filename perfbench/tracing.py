"""Spans and counters recorded from outside the cavqed package.

`Recorder.install(cli)` replaces every public function of each cavqed
module by a wrapper that records a span (name, start, end, parent span,
operation id) and, for a few functions, work counts taken from the
arguments or the result.  Only calls made through a module attribute are
seen: a name bound by `from .spectra import lorentzian` in cqed keeps the
original function, so those calls are missed.  cli's `_COMMANDS` table is
patched as well, because `main` dispatches through it.

File I/O is counted, not spanned: while an operation runs, `open` returns
a proxy that times every read and write of the file and adds the bytes
and seconds to the `io.read` or `io.write` counters when it is closed.

Spans stay in memory and are written out once, by `dump`.
"""

import builtins
import functools
import inspect
import io
import itertools
import json
import os
import threading
import time

MODULES = ("cli", "spectra", "cqed", "dynamics", "fixtures", "svg", "cavity", "budget", "units")


def _convolve_counts(args, kwargs, result):
    n = args[0].values.size
    # float64 arrays the edge-truncated convolution reads and produces:
    # input, the (2n-1)-point kernel and the (3n-2)-point full result
    return {"points": n, "bytes_computed": 8 * (n + (2 * n - 1) + (3 * n - 2))}


def _svg_counts(args, kwargs, result):
    x, series = args[1], args[2]
    return {"points": len(x) * len(series), "bytes": os.path.getsize(args[0])}


# work counts per span name, computed after the span has ended
COUNTS = {
    "spectra.convolve_lorentzian": _convolve_counts,
    "svg.write_line_svg": _svg_counts,
    "spectra.save_spectrum_csv": lambda a, k, r: {"rows": a[0].energies.size},
    "cli.save_trace_csv": lambda a, k, r: {"rows": len(a[2])},
    "cqed.fit_g_from_envelope": lambda a, k, r: {"evals": r.iterations},
}


class _TracedFile:
    """File proxy counting the bytes and time of its reads and writes; the
    totals go to the Recorder when the file is closed."""

    def __init__(self, recorder, fh, kind, open_s):
        self._rec, self._fh, self._kind = recorder, fh, kind
        self._bytes, self._s = 0, open_s

    def _timed(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self._s += time.perf_counter() - t0
        if self._kind == "read" and result is not None:
            self._bytes += len(result)
        return result

    def write(self, data):
        t0 = time.perf_counter()
        result = self._fh.write(data)
        self._s += time.perf_counter() - t0
        self._bytes += len(data)
        return result

    def read(self, *args):
        return self._timed(self._fh.read, *args)

    def __iter__(self):
        return self

    def __next__(self):
        return self._timed(self._fh.__next__)

    def close(self):
        if not self._fh.closed:
            self._timed(self._fh.close)
            self._rec.count_io(self._kind, self._bytes, self._s)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Recorder:
    """In-memory spans of one process, plus I/O counters."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.io = {"read.files": 0, "read.bytes": 0, "read.s": 0.0,
                   "write.files": 0, "write.bytes": 0, "write.s": 0.0}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._lock = threading.Lock()
        self._open = None

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            # a worker thread's first span hangs under the span the main
            # thread is in (the fan-out that started it)
            stack = self._local.stack = []
        return stack

    def span(self, name, t0, t1, parent):
        """Record a span timed by the caller."""
        self.spans.append((next(self._ids), parent, self.op, name, t0, t1, None))

    def wrap(self, name, fn):
        rec = self
        counts = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            sid = next(rec._ids)
            parent = stack[-1] if stack else (rec._main_stack[-1] if rec._main_stack else 0)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = counts(args, kwargs, result) if counts else None
            rec.spans.append((sid, parent, rec.op, name, t0, t1, attrs))
            return result

        return wrapper

    def install(self, cli):
        """Wrap the public functions of cli and every module it imports."""
        import cavqed

        wrapped = {}
        for short in MODULES:
            module = cli if short == "cli" else getattr(cavqed, short)
            for name, obj in list(vars(module).items()):
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[obj] = self.wrap(f"{short}.{name}", obj)
                    setattr(module, name, wrapped[obj])
        for command, fn in list(cli._COMMANDS.items()):
            cli._COMMANDS[command] = wrapped.get(fn, fn)
        self._install_io()

    def _install_io(self):
        rec = self
        real_open = self._open = builtins.open

        def traced_open(file, mode="r", *args, **kwargs):
            if rec.op is None:
                return real_open(file, mode, *args, **kwargs)
            kind = "write" if any(c in mode for c in "wax+") else "read"
            t0 = time.perf_counter()
            fh = real_open(file, mode, *args, **kwargs)
            return _TracedFile(rec, fh, kind, time.perf_counter() - t0)

        builtins.open = io.open = traced_open

    def uninstall_io(self):
        if self._open is not None:
            builtins.open = io.open = self._open
            self._open = None

    def count_io(self, kind, size, seconds):
        with self._lock:
            self.io[f"{kind}.files"] += 1
            self.io[f"{kind}.bytes"] += size
            self.io[f"{kind}.s"] += seconds

    def dump(self, path):
        """Write spans (one JSON array per line) and the I/O counters."""
        real_open = self._open or builtins.open
        with real_open(path, "w") as fh:
            fh.write(json.dumps({"io": self.io}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path):
    """Read a dump: returns (spans, io counters)."""
    with open(path) as fh:
        io_counts = json.loads(fh.readline())["io"]
        return [tuple(json.loads(line)) for line in fh], io_counts
