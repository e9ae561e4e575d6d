"""Traced cold start of one `pl` command.

    python3 perfbench/coldboot.py SPANS_FILE OP_ID <pl arguments...>

Records a span around `import cavqed.cli`, wraps the package's public
functions, calls `cli.main` and writes the spans to SPANS_FILE on exit.
run.py uses it in place of `python3 -m cavqed.cli` for the traced
half of a cold-cli run.
"""

import sys
import time

import tracing


def main():
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    recorder = tracing.Recorder()
    recorder.op = op_id
    t0 = time.perf_counter()
    import cavqed.cli as cli

    recorder.span("import.cavqed.cli", t0, time.perf_counter(), 0)
    recorder.install(cli)
    try:
        return cli.main(argv)
    finally:
        recorder.uninstall_io()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
