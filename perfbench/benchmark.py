#!/usr/bin/env python3
"""End-to-end benchmark of the composed stacks: build, run, compare.

  python3 perfbench/benchmark.py one --workload W --seed N --seconds S --trace 0|1
      One run. Builds perfbench/ under .bench_build/ if needed, runs
      workload W and prints one JSON object as the last line of stdout:
      the end-to-end metrics with --trace 0, the per-layer metrics with
      --trace 1 (an untraced and a traced half of S/2 seconds each).

  python3 perfbench/benchmark.py run [--traced] [--reps N] [--seed N]
                                     [--seconds S] [--out FILE]
      Every workload in BENCHMARK.json, N times with seeds N, N+1, ...;
      prints a workload x metric table of medians and spreads, appends
      each result to FILE as a JSON line, and exits 1 if any run was
      incorrect or had a failed operation.

  python3 perfbench/benchmark.py agree SET_A SET_B
      Compares two files written by `run --out`: for every (workload,
      end-to-end metric) pair, whether SET_B's median is worse than
      SET_A's by more than the metric's bound. A pair whose own
      interquartile spread exceeds the bound in either set is
      `unresolved`; a pair absent from either set is `missing`.
      Exits 1 if any pair is worse, unresolved or missing.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "scm_e2e")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    pass


def log(msg):
    print(f"benchmark: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; compiler output goes to
    stderr so stdout stays reserved for the result line."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "combining.hpp")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "2"])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, check=True, timeout=BUILD_TIMEOUT_S)
        except (subprocess.SubprocessError, OSError) as e:
            raise BenchError(f"build failed: {e}") from e


def run_binary(workload, seed, seconds, trace_file=None):
    cmd = [BINARY, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace_file:
        cmd.append(f"--trace-file={trace_file}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.SubprocessError, OSError) as e:
        raise BenchError(f"{workload}: {e}") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: scm_e2e exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(spec, workload, seed, seconds, trace):
    """One run; returns the result object `one` prints."""
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; one of {names}")
    build()
    if not trace:
        runs = [run_binary(workload, seed, seconds)]
        wanted = spec["end_to_end"]
        metrics = runs[0]["metrics"]
    else:
        # Counters from an untraced half, self times from a traced half;
        # their throughput ratio is the tracing overhead.
        half = seconds / 2
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, f"{workload}-seed{seed}.json")
        untraced = run_binary(workload, seed, half)
        traced = run_binary(workload, seed, half, trace_file)
        runs = [untraced, traced]
        metrics = dict(untraced["metrics"])
        for name, value in traced["metrics"].items():
            if "self_ns" in name or name.endswith(".calls_per_op"):
                metrics[name] = value
        metrics["trace.overhead_frac"] = 1.0 - (
            traced["metrics"]["throughput_mops"] /
            untraced["metrics"]["throughput_mops"])
        wanted = spec["per_layer"]
        log(f"trace written to {os.path.relpath(trace_file, ROOT)}")

    correct = all(r["correct"] for r in runs)
    layers = set(runs[0]["layers"]) | {"trace"}
    out = {}
    for m in wanted:
        name = m["name"]
        value = metrics.get(name)
        if value is None:
            if name.split(".")[0] in layers:
                log(f"{workload}: metric {name} missing")
                correct = False
            value = 0.0  # the layer is not in this workload's stack
        if not math.isfinite(value) or (not trace and value <= 0):
            log(f"{workload}: metric {name} = {value} is not a measurement")
            correct = False
        out[name] = {"value": value, "unit": m["unit"]}
    for r in runs:
        for v in r.get("violations", []):
            log(f"{workload}: violation: {v}")
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": out,
    }


def cmd_one(args):
    spec = load_spec()
    result = measure(spec, args.workload, args.seed, args.seconds,
                     args.trace == 1)
    print(json.dumps(result))
    return 0


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else math.inf


def cmd_run(args):
    spec = load_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    rows = {}
    bad = 0
    out = open(args.out, "a", encoding="utf-8") if args.out else None
    traces = [False, True] if args.traced else [False]
    for rep in range(args.reps):
        seed = args.seed + rep
        for w in spec["workloads"]:
            for trace in traces:
                r = measure(spec, w["name"], seed, seconds, trace)
                if not r["correct"] or r["failed"] > 0:
                    bad += 1
                    log(f"{w['name']} seed {seed}: incorrect run")
                for name, m in r["metrics"].items():
                    rows.setdefault((w["name"], name, m["unit"]), []).append(
                        m["value"])
                if out:
                    out.write(json.dumps({"workload": w["name"], "seed": seed,
                                          "trace": int(trace),
                                          "result": r}) + "\n")
                    out.flush()
    if out:
        out.close()
    print(f"{'workload':<16} {'metric':<34} {'unit':<10} "
          f"{'median':>14} {'spread':>8}  runs")
    for (w, name, unit), values in rows.items():
        print(f"{w:<16} {name:<34} {unit:<10} "
              f"{statistics.median(values):>14.6g} "
              f"{spread(values):>8.2%}  {len(values)}")
    if bad:
        log(f"{bad} incorrect run(s)")
    return 1 if bad else 0


def load_set(path):
    values = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                values.setdefault((rec["workload"], name), []).append(
                    m["value"])
    return values


def cmd_agree(args):
    spec = load_spec()
    a = load_set(args.set_a)
    b = load_set(args.set_b)
    verdicts = 0
    print(f"{'workload':<16} {'metric':<16} {'median A':>12} {'median B':>12} "
          f"{'worse':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in a or key not in b:
                verdicts += 1
                print(f"{w['name']:<16} {m['name']:<16} {'-':>12} {'-':>12} "
                      f"{'-':>8} {'-':>9} {'-':>9} {m['bound']:>6.0%}  missing")
                continue
            ma = statistics.median(a[key])
            mb = statistics.median(b[key])
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a[key]), spread(b[key])
            if sa > m["bound"] or sb > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            verdicts += verdict != "ok"
            print(f"{w['name']:<16} {m['name']:<16} {ma:>12.6g} {mb:>12.6g} "
                  f"{worse:>8.2%} {sa:>9.2%} {sb:>9.2%} {m['bound']:>6.0%}  "
                  f"{verdict}")
    return 1 if verdicts else 0


def main():
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of the composed stacks.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    one = sub.add_parser("one", help="one run, result JSON on stdout")
    one.add_argument("--workload", required=True)
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)

    run = sub.add_parser("run", help="every workload, with a summary table")
    run.add_argument("--traced", action="store_true")
    run.add_argument("--reps", type=int, default=1)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--out", default=None)

    agree = sub.add_parser("agree", help="compare two result sets")
    agree.add_argument("set_a")
    agree.add_argument("set_b")

    args = ap.parse_args()
    try:
        return {"one": cmd_one, "run": cmd_run, "agree": cmd_agree}[args.cmd](
            args)
    except BenchError as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
