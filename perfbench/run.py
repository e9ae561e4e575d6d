"""The cavqed benchmark: runs one workload and prints its result.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: it imports cavqed from ./src and writes
scratch files under ./.perfbench_work (removed on exit) and a report
under ./.perfbench_out.  Single process, closed loop, one client: each
`pl` operation starts only after the previous one has finished.

Workloads (see workloads.py):
  cold-cli            each operation is a fresh `python3 -m cavqed.cli`
  batch-synthetic     the seven commands through in-process `cli.main`
  reanalyze-measured  brightness/lifetime/saturation on measured-style CSVs

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The last line of stdout is the result object; the line before it is the
full report (manifest, sample counts, tail percentile, checks).
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time

import calibration
import check
import metrics
import tracing
import workloads

N_SETUP = 3  # set-ups per run; setup_s is their median
SETUP_TIMEOUT_S = 60
OP_TIMEOUT_S = 60
HERE = workloads.HERE


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_until_ready(argv, env, root, stderr, timeout):
    """Start a child and wait for its "ready" line; returns (proc, seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr, env=env, cwd=root)
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else b""
    elapsed = time.perf_counter() - t0
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{argv[1:3]} did not get ready (exit {proc.returncode})")
    return proc, elapsed


def finish(proc, timeout):
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"child {proc.args[1:3]} timed out")
    proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"child {proc.args[1:3]} exited with {proc.returncode}")


def latest_ops(timed, first_pass, last_pass):
    """Latest op of every label run in timed passes first..last."""
    latest = {}
    for index in range(max(first_pass, last_pass - 1), last_pass + 1):
        for op in timed(index):
            latest[op.label] = op
    return list(latest.values())


# ---------------------------------------------------------------------------
# cold-cli: one fresh interpreter per operation

def cold_setup(root, env, work):
    """(seconds, paired kernel seconds) of N_SETUP fresh `import cavqed.cli`."""
    code = "import cavqed.cli; print('ready', flush=True)"
    setups = []
    with open(os.path.join(work, "setup.err"), "w") as err:
        for _ in range(N_SETUP):
            kernel = calibration.paired_kernel_seconds()
            proc, seconds = start_until_ready([sys.executable, "-c", code], env, root, err,
                                              SETUP_TIMEOUT_S)
            finish(proc, SETUP_TIMEOUT_S)
            setups.append((seconds, kernel))
    return setups


def cold_loop(root, env, work, ops_of_pass, seconds, first_pass, spans_dir=None,
              first_op_id=1):
    """Run ops one at a time until `seconds` have elapsed.  Each op is
    preceded by calibration kernel runs whose median goes into the op's
    sample as "k".  `segments` holds the (start, seconds) of each op with
    its bookkeeping, leaving the kernels out."""
    samples, segments, ran = [], [], []
    index = first_pass
    err_path = os.path.join(work, "op.err")
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for op in ops_of_pass(index):
            if time.perf_counter() - start >= seconds:
                break
            kernel = calibration.paired_kernel_seconds()
            begin = time.perf_counter()
            op_id = first_op_id + len(samples)
            if spans_dir is None:
                argv = [sys.executable, "-m", "cavqed.cli", *op.argv]
            else:
                argv = [sys.executable, os.path.join(HERE, "coldboot.py"),
                        os.path.join(spans_dir, f"{op_id}.jsonl"), str(op_id), *op.argv]
            workloads.clear(workloads.out_dir_of(op))
            with open(err_path, "w") as err:
                t0 = time.perf_counter()
                try:
                    code = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=err, env=env,
                                          cwd=root, timeout=OP_TIMEOUT_S).returncode
                except subprocess.TimeoutExpired:
                    code = "timeout"
                latency = time.perf_counter() - t0
            missing = workloads.missing_outputs(op)
            sample = {"label": op.label, "command": op.command, "s": latency, "k": kernel,
                      "ok": code == 0 and not missing, "op_id": op_id, "pass": index}
            if not sample["ok"]:
                with open(err_path) as fh:
                    sample["error"] = f"exit {code}, missing {missing}: {fh.read()[-400:]}"
            samples.append(sample)
            segments.append((begin, time.perf_counter() - begin))
            ran.append(op)
        index += 1
    return {"samples": samples, "segments": segments,
            "first_pass": first_pass, "last_pass": index - 1, "ops": ran}


def run_cold(args, root, env, work):
    ref_ops, timed = workloads.passes(args.workload, work, args.seed)

    def ops_of_pass(index):
        return ref_ops if index == 0 else timed(index)

    out = {}
    if args.trace:
        half = args.seconds / 2
        spans_dir = os.path.join(work, "spans")
        os.makedirs(spans_dir)
        out["untraced"] = cold_loop(root, env, work, ops_of_pass, half, 0)
        out["traced"] = cold_loop(root, env, work, ops_of_pass, half,
                                  out["untraced"]["last_pass"] + 1, spans_dir,
                                  len(out["untraced"]["samples"]) + 1)
        spans, io_counts = [], None
        for name in sorted(os.listdir(spans_dir)):
            more, counts = tracing.load_spans(os.path.join(spans_dir, name))
            spans += more
            io_counts = counts if io_counts is None else {
                k: io_counts[k] + counts[k] for k in io_counts}
        out["spans"], out["io"] = spans, io_counts
    else:
        out["setup_s"] = cold_setup(root, env, work)
        out["untraced"] = cold_loop(root, env, work, ops_of_pass, args.seconds, 0)
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # pass 0 is timed here, so check only the reference ops that ran
    ran = [op for k in ("untraced", "traced") if k in out for op in out[k]["ops"]]
    out["ref_ops"] = [op for op in ran if op.reference]
    out["latest_ops"] = list({op.label: op for op in ran if not op.reference}.values())
    return out


# ---------------------------------------------------------------------------
# in-process workloads: worker.py in a fresh interpreter

def run_inprocess(args, root, env, work):
    ref_ops, timed = workloads.passes(args.workload, work, args.seed)
    mode = "trace" if args.trace else "measure"
    n = 1 if args.trace else N_SETUP
    setups, warmup, result = [], [], None
    for i in range(n):
        last = i == n - 1
        kernel = calibration.paired_kernel_seconds()
        result_path = os.path.join(work, f"result-{i}.json")
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
                "--work", work, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--mode", mode if last else "setup", "--result", result_path,
                "--spans", os.path.join(work, "spans.jsonl")]
        with open(os.path.join(work, f"worker-{i}.err"), "w") as err:
            proc, seconds = start_until_ready(argv, env, root, err, SETUP_TIMEOUT_S)
            finish(proc, args.seconds + 120 if last else SETUP_TIMEOUT_S)
        setups.append((seconds, kernel))
        with open(result_path) as fh:
            result = json.load(fh)
        warmup += result["warmup"]
    out = {"ref_ops": ref_ops, "setup_s": setups, "warmup": warmup,
           "untraced": result["untraced"], "calibration_s": result["calibration_s"],
           "peak_rss_kb": result["peak_rss_kb"]}
    if args.trace:
        out["traced"] = result["traced"]
        out["spans"], out["io"] = tracing.load_spans(os.path.join(work, "spans.jsonl"))
    timed_run = out.get("traced", out["untraced"])
    out["latest_ops"] = latest_ops(timed, timed_run["first_pass"], timed_run["last_pass"])
    return out


# ---------------------------------------------------------------------------
# metrics and report

def import_metrics(root, env):
    """Import times from one `-X importtime` interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cavqed.cli"],
                          capture_output=True, text=True, env=env, cwd=root,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import of cavqed.cli failed: {proc.stderr[-400:]}")
    return {f"import.{k}_ms": v for k, v in metrics.parse_importtime(proc.stderr).items()}


def ops_per_s(run):
    return len(run["samples"]) / sum(seconds for _, seconds in run["segments"])


def speeds(out, run):
    """Machine slowness next to each op and each segment of a timed loop."""
    if "calibration_s" in out:  # in-process: kernel runs between passes
        cal = out["calibration_s"]
        return ([calibration.speed(cal, s["t"]) for s in run["samples"]],
                [calibration.speed(cal, t + w / 2) for t, w in run["segments"]])
    op_speed = [s["k"] / calibration.NOMINAL_S for s in run["samples"]]  # cold
    return op_speed, op_speed


def scaled_ops_per_s(out, run):
    _, segment_speed = speeds(out, run)
    return len(run["samples"]) / sum(w / v for (_, w), v in zip(run["segments"], segment_speed))


def end_to_end(out):
    """End-to-end metrics scaled to the nominal machine (calibration.py);
    the values as measured go to the report details."""
    run = out["untraced"]
    latencies = [s["s"] for s in run["samples"]]
    tail_s, tail_pct = metrics.tail(latencies)
    measured = {
        "setup_s": statistics.median(s for s, _ in out["setup_s"]),
        "op_ms_p50": 1e3 * statistics.median(latencies),
        "op_ms_tail": 1e3 * tail_s,
        "ops_per_s": ops_per_s(run),
        "peak_rss_mb": out["peak_rss_kb"] / 1024.0,
    }
    op_speed, _ = speeds(out, run)
    scaled = [s / v for s, v in zip(latencies, op_speed)]
    kernels = ([k for _, k in out["calibration_s"]] if "calibration_s" in out
               else [s["k"] for s in run["samples"]])
    values = dict(
        measured,
        # set-ups scale by the median kernel of all three: scaling each by
        # its own kernel spread more from run to run
        setup_s=measured["setup_s"] * calibration.NOMINAL_S
        / statistics.median(k for _, k in out["setup_s"]),
        op_ms_p50=1e3 * statistics.median(scaled),
        op_ms_tail=1e3 * metrics.tail(scaled)[0],
        ops_per_s=scaled_ops_per_s(out, run))
    details = {"samples": len(latencies), "tail_percentile": tail_pct,
               "setup_samples_s": out["setup_s"], "measured": measured,
               "calibration": {"op_kernel_median_s": statistics.median(kernels),
                               "op_kernels": len(kernels),
                               "setup_kernel_median_s": statistics.median(
                                   k for _, k in out["setup_s"]),
                               "nominal_s": calibration.NOMINAL_S}}
    return values, details


def per_layer(out, root, env):
    traced = out["traced"]
    op_seconds = {s["op_id"]: s["s"] for s in traced["samples"]}
    values = metrics.layer_metrics(out["spans"], out["io"], op_seconds)
    values.update(import_metrics(root, env))
    # both halves scaled, so host drift between them does not read as overhead
    untraced_rate = scaled_ops_per_s(out, out["untraced"])
    traced_rate = scaled_ops_per_s(out, traced)
    values["trace.ops_per_s_untraced"] = untraced_rate
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    details = {"traced_ops": len(traced["samples"]), "spans": len(out["spans"]),
               "untraced_ops": len(out["untraced"]["samples"])}
    return values, details


def per_command_ms(samples):
    by = {}
    for s in samples:
        by.setdefault(s["label"], []).append(1e3 * s["s"])
    return {label: {"n": len(v), "p50": statistics.median(v)} for label, v in sorted(by.items())}


def manifest(root, args):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "cavqed")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "loop": "closed, one client, operations run one after another",
    }


def measure(args, root, work):
    env = child_env(root)
    run = run_cold if args.workload == "cold-cli" else run_inprocess
    out = run(args, root, env, work)
    samples = (out.get("warmup", []) + out["untraced"]["samples"]
               + out.get("traced", {}).get("samples", []))
    quick_failed = sum(1 for s in samples if not s["ok"])
    checks = check.check_run(args.workload, out["ref_ops"], out["latest_ops"])
    attempted = len(samples)
    # an op can fail both the inline and the output check, so cap the sum
    failed = min(attempted, quick_failed + checks.pop("failed_ops"))
    if args.trace:
        values, details = per_layer(out, root, env)
        units = metrics.PER_LAYER
    else:
        values, details = end_to_end(out)
        units = metrics.END_TO_END
    report = {
        "manifest": manifest(root, args),
        "details": details,
        "per_command_ms": per_command_ms(out["untraced"]["samples"]),
        "checks": checks,
        "fail_frac": failed / attempted,
        "max_rel_err": checks["max_rel_err"],
        "errors": [s["error"] for s in samples if not s["ok"]][:5],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return report, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cavqed", "cli.py")):
        print("perfbench: run from the root of a cavqed checkout (no src/cavqed/cli.py here)",
              file=sys.stderr)
        return 2
    # One CPU for this process, its children and the calibration kernels: on
    # a shared host the CPUs differ in speed from moment to moment, and a
    # kernel only calibrates work that ran on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        report, result = measure(args, root, work)
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        workloads.clear(work)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
