#!/usr/bin/env python3
"""Checks that GCC vectorizes the hot kernels.

    check_vectorized.py COMPILER_ID CXX SOURCE_DIR OBJECT

Compiles tests/vectorize/lane_kernels.cpp alone with CXX at -O3 and
-fopt-info-vec-optimized, writing OBJECT, and exits 0 only if GCC
reports "loop vectorized" at the loop of every kernel in KERNELS: COUNT's
lane update and lane statistics, and the NEWSCAST bootstrap's per-node
collision scan and rank loop. Each loop is found by the
`hot-kernel: <name>` comment on its line. An early exit or an or-ed flag
that creeps into one of these loops stops it vectorizing without moving
any result, so no golden would notice; GCC if-converts a plain
`if (x) ++n;`, which keeps vectorizing.
The report is GCC's, so for any COMPILER_ID (CMake's) but GNU the check
exits 77, which ctest counts as skipped.
"""
import re
import subprocess
import sys
from pathlib import Path

SKIPPED = 77
KERNELS = [
    ("src/core/update.hpp", "update-both"),
    ("src/core/update.hpp", "update-passive"),
    ("src/stats/running_stats.hpp", "lane-stats"),
    ("src/membership/bootstrap.hpp", "bootstrap-scan"),
    ("src/membership/bootstrap.hpp", "bootstrap-rank"),
]


def main() -> int:
    if len(sys.argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    compiler_id, cxx, obj = sys.argv[1], sys.argv[2], sys.argv[4]
    source_dir = Path(sys.argv[3])
    if compiler_id != "GNU":
        print(f"skipped: the check reads GCC's report, not {compiler_id}'s")
        return SKIPPED
    cmd = [cxx, "-std=c++20", "-O3", "-fopt-info-vec-optimized",
           f"-I{source_dir / 'src'}", "-c",
           str(source_dir / "tests" / "vectorize" / "lane_kernels.cpp"),
           "-o", obj]
    run = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if run.returncode != 0:
        print(run.stderr)
        return 1
    failed = 0
    for rel, name in KERNELS:
        marker = f"hot-kernel: {name}"
        text = (source_dir / rel).read_text(encoding="utf-8")
        lines = [n for n, line in enumerate(text.splitlines(), 1)
                 if marker in line]
        if len(lines) != 1:
            print(f"FAIL {rel}: {len(lines)} lines carry '{marker}', "
                  "expected one")
            failed += 1
            continue
        where = f"{rel}:{lines[0]}"
        report = re.compile(
            rf"{re.escape(where)}:\d+: optimized: loop vectorized")
        if report.search(run.stderr):
            print(f"ok   {where} ({name}) vectorized")
        else:
            print(f"FAIL {where} ({name}) not vectorized")
            failed += 1
    if failed:
        print("GCC's report:\n" + run.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
