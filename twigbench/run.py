#!/usr/bin/env python3
"""The repository's benchmark: builds twigbench from source and runs it.

One workload run (the form the benchmark contract uses):

    python3 twigbench/run.py --workload single_learn --seed 1 \
        --seconds 20 --trace 0

prints human-readable lines and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics: every end_to_end metric
of BENCHMARK.json with --trace 0, every per_layer metric with --trace 1.
A layer a workload does not run reads 0 in its traced result.

The whole suite in one command:

    python3 twigbench/run.py --all [--seeds 1,2] [--seconds 20]

runs the benchmark's unit tests, then every workload untraced and traced
at each seed, prints every metric by name and unit with the tracing
overhead and the host fingerprint, writes the results to
.bench_build/twigbench-results.json, and exits 1 if any check failed.

Builds go to .bench_build/twigbench, scratch files to
.bench_build/twigbench-scratch-<pid> and temporary files to
.bench_build/tmp, all inside the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "twigbench"
WORKLOADS = ("single_learn", "fleet_cohort", "serve_live")
RUN_TIMEOUT_S = 150

# Serving, drop and tail figures the binary reports in untraced runs
# besides BENCHMARK.json's end_to_end list, under the names the suite
# prints them with.
EXTRA_METRICS = {
    "interval_ms_p95": "interval_ms_p95",
    "drop_pct": "drop_pct",
    "ack_us_p50": "serve.ack_us_p50",
    "ack_us_p99": "serve.ack_us_p99",
    "max_frames_per_s_at_slo": "serve.max_frames_per_s_at_slo",
    "unacked_pct": "serve.unacked_pct",
    "load_accuracy_pct": "serve.load_accuracy_pct",
    "ctl_pace_pct": "serve.ctl_pace_pct",
    "loadgen.lag_us_p99": "loadgen.lag_us_p99",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("twigbench: " + msg)
    sys.exit(code)


def local_env():
    """Environment whose temporary files stay inside the checkout."""
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def build(targets):
    """Configure (once) and build @p targets; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full "
             "checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr,
                          env=local_env()).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", str(BUILD_DIR), "-j", jobs, "--target",
           *targets]
    if subprocess.run(cmd, stdout=sys.stderr,
                      env=local_env()).returncode != 0:
        fail("build failed")


def load_contract():
    path = ROOT / "BENCHMARK.json"
    try:
        contract = json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)
    return contract


def run_binary(workload, seed, seconds, trace):
    """Run one workload; return the binary's result object."""
    scratch = BUILD_ROOT / f"twigbench-scratch-{os.getpid()}"
    cmd = [str(BUILD_DIR / "twigbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--repo", str(ROOT),
           "--scratch", str(scratch)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=local_env())
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"{workload} printed no result line")


def select_metrics(result, specs, fill_missing):
    """The contract's metrics, in its order, with its units."""
    out = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        if got is None:
            if not fill_missing:
                fail(f"{result['workload']} did not report {name}")
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            fail(f"{name}: unit {got['unit']} does not match {unit}")
        out[name] = {"value": got["value"], "unit": unit}
    return out


def describe(result):
    """Human-readable lines for one result."""
    host = result["host"]
    yield (f"# {result['workload']} seed={result['seed']} "
           f"seconds={result['seconds']:g} trace={int(result['trace'])} "
           f"correct={result['correct']} attempted={result['attempted']} "
           f"failed={result['failed']}")
    yield (f"# host: {host['cpu_model']}, nproc {host['nproc']}, "
           f"{host['compiler']}, flags '{host['build_flags']}'")
    for check in result["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        yield f"# check {mark} {check['name']}: {check['detail']}"
    for cond in result["validity"]:
        mark = "ok     " if cond["ok"] else "INVALID"
        yield f"# validity {mark} {cond['name']}: {cond['detail']}"
    for name, m in result["metrics"].items():
        yield f"{name:34s} {m['value']:16.6f} {m['unit']}"


def one_run(args):
    contract = load_contract()
    build(["twigbench"])
    result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    for line in describe(result):
        print(line)
    specs = contract["per_layer"] if args.trace else contract["end_to_end"]
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select_metrics(result, specs, fill_missing=args.trace),
    }
    print(json.dumps(line), flush=True)


def suite(args):
    contract = load_contract()
    build(["twigbench", "twigbench_tests"])
    tests = subprocess.run([str(BUILD_DIR / "twigbench_tests")],
                           stdout=sys.stderr)
    ok = tests.returncode == 0
    print(f"unit tests: {'passed' if ok else 'FAILED'}")
    seeds = [int(s) for s in args.seeds.split(",")]
    results = []
    for workload in WORKLOADS:
        for seed in seeds:
            plain = run_binary(workload, seed, args.seconds, 0)
            traced = run_binary(workload, seed, args.seconds, 1)
            results += [plain, traced]
            ok = ok and plain["correct"] and traced["correct"]
            print()
            for line in describe(plain):
                print(line)
            print("# end-to-end:")
            for spec in contract["end_to_end"]:
                m = plain["metrics"][spec["name"]]
                print(f"  {spec['name']:28s} {m['value']:14.4f} {m['unit']}")
            for name, key in EXTRA_METRICS.items():
                if key in plain["metrics"]:
                    m = plain["metrics"][key]
                    print(f"  {name:28s} {m['value']:14.4f} {m['unit']}")
            overhead = traced["metrics"]["trace.overhead_pct"]["value"]
            info = traced["info"]
            print(f"# tracing overhead: traced "
                  f"{info['trace_traced_intervals_per_s']:.2f} vs untraced "
                  f"{info['trace_untraced_intervals_per_s']:.2f} "
                  f"intervals/s ({overhead:+.2f} %)")
            for line in describe(traced):
                print(line)
    out = BUILD_ROOT / "twigbench-results.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {out}")
    print("suite: " + ("all checks passed" if ok else "CHECKS FAILED"))
    sys.exit(0 if ok else 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true",
                   help="run the whole suite (unit tests, every workload "
                        "untraced and traced)")
    p.add_argument("--seeds", default="1,2",
                   help="comma-separated seeds for --all")
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if args.all:
        suite(args)
    elif args.workload is None:
        p.error("--workload or --all is required")
    else:
        one_run(args)


if __name__ == "__main__":
    main()
