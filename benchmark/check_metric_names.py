#!/usr/bin/env python3
"""bench_metric_names: BENCHMARK.json and gossip_bench must name the same
metrics, with the same units, for every workload in both modes.

Usage: check_metric_names.py GOSSIP_BENCH BENCHMARK_JSON

Runs each workload in --smoke mode (N=2000), untraced and traced, and
checks the output with run.py's own verification: every listed metric
emitted with its unit, nothing unlisted emitted, every check passed.
Exits non-zero on any difference.
"""
import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # keep the source tree free of caches
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import verify  # noqa: E402


def main():
    binary, spec_path = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    problems = []
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as trace_dir:
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, listed in (("0", "end_to_end"), ("1", "per_layer")):
                proc = subprocess.run(
                    [binary, "--smoke", "--workload", workload,
                     "--seconds", "0", "--trace", trace,
                     "--trace-dir", trace_dir],
                    stdout=subprocess.PIPE, text=True, check=False)
                if proc.returncode != 0:
                    problems.append(f"{workload} trace={trace}: "
                                    f"exit {proc.returncode}")
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                wanted = {m["name"]: m["unit"] for m in spec[listed]}
                verify(result, wanted, problems)
    for p in problems:
        print(p)
    print("metric names match" if not problems else
          f"{len(problems)} mismatch(es)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
