"""Print every benchmark metric by name, with its unit, for each workload.

    python3 perfbench/report.py [--seconds S] [--seed N] [--workload NAME ...]

Runs run.py once untraced and once traced per workload and prints the
end-to-end and per-layer metrics, the correctness figures (fail_frac,
max_rel_err, byte-identical files) and the tracing overhead: the
traced run's ops_per_s in its untraced half minus that in its traced
half.  End-to-end timings and both halves' ops_per_s are scaled to the
nominal machine (see calibration.py); the values as measured and the
kernel medians are printed too.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads

HERE = workloads.HERE


def run(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS))
    args = parser.parse_args()

    for workload in args.workload:
        report, result = run(workload, args.seed, args.seconds, 0)
        traced_report, traced = run(workload, args.seed, args.seconds, 1)
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s per run)")
        for name, metric in list(result["metrics"].items()) + list(traced["metrics"].items()):
            print(f"  {name:44s} {metric['value']:>16.6g} {metric['unit']}")
        details = report["details"]
        print(f"  {'op_ms_tail percentile':44s} {details['tail_percentile']:>16.6g} %"
              f" of {details['samples']} samples")
        for name, value in details["calibration"].items():
            print(f"  {'calibration ' + name:44s} {value:>16.6g}")
        for name, value in details["measured"].items():
            print(f"  {name + ' as measured':44s} {value:>16.6g}"
                  f" {result['metrics'][name]['unit']}")
        for name, rep, res in (("untraced", report, result), ("traced", traced_report, traced)):
            refs = rep["checks"]["reference"]
            print(f"  {name + ' fail_frac':44s} {rep['fail_frac']:>16.6g} fraction"
                  f" ({res['failed']} of {res['attempted']} ops)")
            print(f"  {name + ' max_rel_err':44s} {rep['max_rel_err']:>16.6g} fraction"
                  f" ({refs['byte_identical']} of {refs['files']} reference files"
                  " byte-identical)")
        untraced_rate = traced["metrics"]["trace.ops_per_s_untraced"]["value"]
        traced_rate = traced["metrics"]["trace.ops_per_s_traced"]["value"]
        print(f"  {'tracing overhead (ops_per_s)':44s} {untraced_rate - traced_rate:>16.6g} 1/s"
              f" ({untraced_rate:.4g} untraced - {traced_rate:.4g} traced)")


if __name__ == "__main__":
    main()
