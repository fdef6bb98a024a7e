#!/usr/bin/env python3
"""Compares two sets of benchmark results: a parent (BASE) and a change.

    python3 benchmark/compare.py BASE CHANGE

BASE and CHANGE are each a results directory written by run.py
(build-bench/results/ of a checkout). Traced runs are ignored. Runs pair up in the order they started, so run
the two sides alternately with the same seed per pair.

For every workload and end-to-end metric it prints both sides' medians
and quartiles, the pairs the change won, and a verdict:

  improved    at least 10 pairs, the change won at least 9 in 10, and the
              medians differ by more than the parent's quartile spread;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the run-to-run spread is wider than the bound (unless every
              change run beats every parent run), or too few runs;
  unchanged   otherwise.

It also checks that the change fails no larger share of repetitions than
the parent, and whether simulator output digests agree seed by seed. The
exit code is 1 on any regression or a larger failed share, else 0.
Standard library only.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    runs = []
    for name in os.listdir(directory):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as f:
            record = json.load(f)
        if not record["provenance"]["trace"]:
            runs.append(record)
    runs.sort(key=lambda r: r["provenance"]["started_unix"])
    return runs


def by_workload(runs):
    """workload → list of that workload's per-run outputs, in run order."""
    out = {}
    for record in runs:
        for result in record["workloads"]:
            out.setdefault(result["workload"], []).append(result)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def cell(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(base, change, better, bound):
    """Returns (verdict, wins, pairs) for one metric's two sample lists."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(base), len(change))
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    if len(base) < 2 or len(change) < 2:
        return "unresolved", wins, pairs
    b_med = statistics.median(base)
    c_med = statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    c_q1, c_q3 = quartiles(change)
    scale = abs(b_med) if b_med != 0 else 1.0
    spread = max(b_q3 - b_q1, c_q3 - c_q1) / scale
    worse = -sign * (c_med - b_med) / scale
    claim = (pairs >= 10 and wins >= 0.9 * pairs and
             sign * (c_med - b_med) > b_q3 - b_q1)
    all_better = (min(change) > max(base) if sign > 0
                  else max(change) < min(base))
    if all_better:
        return ("improved" if claim else "unchanged"), wins, pairs
    if spread > bound:
        return "unresolved", wins, pairs
    if worse > bound:
        return "regressed", wins, pairs
    return ("improved" if claim else "unchanged"), wins, pairs


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def digests_agree(base, change):
    """None when no seed ran on both sides with a digest, else bool."""
    seen = {}
    for r in base:
        if r.get("digest"):
            seen.setdefault(r["seed"], set()).add(r["digest"])
    agree = None
    for r in change:
        if r.get("digest") and r["seed"] in seen:
            agree = (agree is not False) and seen[r["seed"]] == {r["digest"]}
    return agree


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = json.load(f)["end_to_end"]
    base = by_workload(load_runs(sys.argv[1]))
    change = by_workload(load_runs(sys.argv[2]))
    bad = False
    header = (f"{'workload':<18} {'metric':<19} {'parent median [q1, q3]':>34}"
              f" {'change median [q1, q3]':>34} {'diff':>7} {'won':>6}"
              f"  verdict")
    print(header)
    for workload in sorted(base.keys() & change.keys()):
        b_runs, c_runs = base[workload], change[workload]
        for m in metrics:
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            v, wins, pairs = verdict(b, c, m["better"], m["bound"])
            bad = bad or v == "regressed"
            b_med, c_med = statistics.median(b), statistics.median(c)
            diff = (c_med - b_med) / abs(b_med) if b_med else 0.0
            print(f"{workload:<18} {m['name']:<19} {cell(b):>34} "
                  f"{cell(c):>34} {diff:>+7.1%} {wins:>2}/{pairs:<3}  {v}")
        b_fail, c_fail = failed_share(b_runs), failed_share(c_runs)
        if c_fail > b_fail:
            bad = True
            print(f"{workload}: failed share rose from {b_fail:.4f} to "
                  f"{c_fail:.4f}; no gain counts")
        agree = digests_agree(b_runs, c_runs)
        if agree is not None:
            print(f"{workload}: output digests "
                  f"{'identical' if agree else 'DIFFER'} seed for seed")
    for workload in sorted(base.keys() ^ change.keys()):
        print(f"{workload}: present on one side only")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
