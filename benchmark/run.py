#!/usr/bin/env python3
"""The repository benchmark: builds gossip_bench, runs workloads, checks them.

    python3 benchmark/run.py [--workload NAME|all] [--seed S]
                             [--seconds T] [--trace [0|1]]

Run from anywhere inside a checkout; it builds into build-bench/ at the
repository root (Release only) and writes every result, with provenance,
under build-bench/results/. Each workload runs in its own process, so its
peak RSS is its own. Every metric is printed by name and unit; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 (the default) the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list. For --workload all, metric names
are prefixed with the workload name. The exit code is 0 only if every
check passed. Standard library only.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD, "gossip_bench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures until a build succeeded, then (re)builds gossip_bench;
    logs to build-bench/build.log."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(BINARY):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "gossip_bench",
                  "-j", jobs])
    with open(log_path, "a", encoding="utf-8") as log:
        for cmd in steps:
            if shutil.which(cmd[0]) is None:
                fail(f"{cmd[0]} not found")
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                check=False).returncode
            if rc != 0:
                log.flush()
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(cmd)}")
    build_type = None
    with open(os.path.join(BUILD, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail(f"refusing to measure a {build_type or 'untyped'} build; "
             "delete build-bench/ and rerun")


def git_sha():
    # Only ask git inside a real checkout: a plain source tree must not
    # pick up some enclosing repository.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, env=env, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(name, args, trace_dir):
    cmd = [BINARY, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", trace_dir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{name}: gossip_bench exited {proc.returncode}")
    return json.loads(lines[-1])


def verify(result, wanted, problems):
    """Cross-checks one workload's output against BENCHMARK.json."""
    name = result["workload"]
    if result["build_type"] != "Release":
        problems.append(f"{name}: binary built as {result['build_type']}")
    for check in result["checks"]:
        if check["failed_reps"]:
            problems.append(f"{name}: check {check['name']} failed on "
                            f"{check['failed_reps']} rep(s)")
    got = result["metrics"]
    for metric, unit in wanted.items():
        m = got.get(metric)
        if m is None:
            problems.append(f"{name}: metric {metric} missing")
        elif m["unit"] != unit:
            problems.append(f"{name}: {metric} unit {m['unit']} != {unit}")
        elif not math.isfinite(m["value"]):
            problems.append(f"{name}: {metric} is not finite")
    for metric in got.keys() - wanted.keys():
        problems.append(f"{name}: metric {metric} not in BENCHMARK.json")


def print_metrics(result):
    print(f"{result['workload']}  (seed {result['seed']}, "
          f"{result['threads']} threads, spec {result['spec_hash']})")
    for metric, m in result["metrics"].items():
        spread = ""
        if "n" in m:
            spread = (f"  [min {m['min']:.6g}, max {m['max']:.6g}, "
                      f"n={m['n']}]")
        print(f"  {metric:<38} {m['value']:>14.6g} {m['unit']:<6}{spread}")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    started = time.time()
    load_1m = os.getloadavg()[0]
    build()
    run_id = time.strftime("%Y%m%d-%H%M%S", time.localtime(started)) + \
        f"-{os.getpid()}"
    trace_dir = os.path.join(BUILD, "results", run_id)
    os.makedirs(trace_dir, exist_ok=True)

    wanted = {m["name"]: m["unit"] for m in
              spec["per_layer" if args.trace == "1" else "end_to_end"]}
    selected = names if args.workload == "all" else [args.workload]
    results, problems = [], []
    for name in selected:
        result = run_workload(name, args, trace_dir)
        verify(result, wanted, problems)
        print_metrics(result)
        results.append(result)

    first = results[0]
    record = {
        "provenance": {
            "git_sha": git_sha(),
            "nproc": first["nproc"],
            "threads": first["threads"],
            "compiler": first["compiler"],
            "build_type": first["build_type"],
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace == "1",
            "load_avg_1m": load_1m,
            "started_unix": started,
            "spec_hashes": {r["workload"]: r["spec_hash"] for r in results},
        },
        "workloads": results,
    }
    path = os.path.join(BUILD, "results", run_id + ".json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)
        f.write("\n")

    for p in problems:
        print(f"FAIL {p}")
    print(f"results: {os.path.relpath(path, ROOT)}")
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for metric, m in r["metrics"].items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    correct = not problems and all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
