"""In-process worker: one fresh interpreter that imports `cavqed.cli`,
runs the reference pass as its untimed warm-up, prints "ready" (the
end of set-up as run.py times it) and then, unless --mode setup, runs timed passes
of `cli.main` calls for --seconds.

    --mode setup    warm-up only
    --mode measure  warm-up, then timed passes, untraced
    --mode trace    warm-up, timed passes for half the time untraced, then
                    for the other half with every cavqed module wrapped

The result (per-op latencies and checks, peak RSS) goes to --result as
JSON; spans of a traced run go to --spans.  run.py passes the
checkout's src/ on PYTHONPATH.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

import workloads


def run_op(cli, op, recorder=None, op_id=None):
    """One timed `cli.main` call; returns a sample dict."""
    workloads.clear(workloads.out_dir_of(op))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if recorder is not None:
            recorder.op = op_id
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception:  # a crash is a failed operation, not a failed run
            code = -1
            traceback.print_exc()
        latency = time.perf_counter() - t0
        if recorder is not None:
            recorder.op = None
    missing = workloads.missing_outputs(op)
    sample = {"label": op.label, "command": op.command, "s": latency, "t": t0,
              "ok": code == 0 and not missing}
    if not sample["ok"]:
        sample["error"] = f"exit {code}, missing {missing}: {err.getvalue()[-400:]}"
    if op_id is not None:
        sample["op_id"] = op_id
    return sample


def timed_passes(cli, timed, seconds, first_index, sampler, recorder=None, first_op_id=1):
    """Run whole passes until `seconds` have elapsed.  `segments` holds the
    (start, seconds) of each pass, which leaves out the calibration kernel
    runs between passes."""
    samples, segments = [], []
    index = first_index
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        sampler.maybe()
        t0 = time.perf_counter()
        for op in timed(index):
            op_id = first_op_id + len(samples) if recorder is not None else None
            samples.append(run_op(cli, op, recorder, op_id))
        segments.append((t0, time.perf_counter() - t0))
        index += 1
    return {"samples": samples, "segments": segments,
            "first_pass": first_index, "last_pass": index - 1}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    import cavqed.cli as cli

    ref_ops, timed = workloads.passes(args.workload, args.work, args.seed, generate=False)
    result = {"warmup": [run_op(cli, op) for op in ref_ops]}
    print("ready", flush=True)

    import calibration

    sampler = calibration.Sampler()
    if args.mode == "measure":
        result["untraced"] = timed_passes(cli, timed, args.seconds, 1, sampler)
    elif args.mode == "trace":
        import tracing

        untraced = timed_passes(cli, timed, args.seconds / 2, 1, sampler)
        recorder = tracing.Recorder()
        recorder.install(cli)
        traced = timed_passes(cli, timed, args.seconds / 2, untraced["last_pass"] + 1,
                              sampler, recorder)
        recorder.uninstall_io()
        recorder.dump(args.spans)
        result.update(untraced=untraced, traced=traced)
    result["calibration_s"] = sampler.samples
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
