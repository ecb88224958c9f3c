#!/usr/bin/env python3
"""Compare two sets of host-time benchmark runs.

    python3 hostbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the untraced reports run.py --out writes
(<workload>-s<seed>-t0.json). Runs of the two sides are paired by
workload and seed; run the pairs alternately, parent first on one pair
and change first on the next. Every (end-to-end metric, workload) pair
gets one verdict, using the bounds in BENCHMARK.json:

  improved    at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither side), and the medians differ by
              more than the parent's interquartile range;
  unresolved  the parent's spread (interquartile range over median) is
              wider than the bound, unless every change run reads better
              than every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound;
  unchanged   otherwise.

vt_p50_ns, vt_p99_ns, fail_share and heap_peak_mb repeat exactly on
every run of a seed, so pairs are compared seed by seed. A virtual-time
metric that differs in any pair has moved. fail_share is improved or
worse by its median. heap_peak_mb is worse or improved when the median
of its per-seed ratios is more than 10% above or below 1.
The exit code is 1 when any verdict is worse or moved, else 0.
"""

import json
import statistics
import sys
from pathlib import Path

DETERMINISTIC = ["vt_p50_ns", "vt_p99_ns", "fail_share", "heap_peak_mb"]
HEAP_BOUND = 0.10
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(d):
    runs = {}
    for p in sorted(Path(d).glob("*-t0.json")):
        r = json.loads(p.read_text())
        runs.setdefault(r["workload"], {})[r["seed"]] = r["metrics"]
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(p, c, better, bound):
    """p, c: paired value lists (same seeds, same order)."""
    sign = 1 if better == "lower" else -1
    mp, mc = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    spread = (q3 - q1) / mp if mp else 0.0
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    all_better = max(sign * x for x in c) < min(sign * x for x in p)
    if len(p) >= MIN_PAIRS and wins >= WIN_SHARE * len(p) and sign * (mc - mp) < 0 \
            and abs(mc - mp) > q3 - q1:
        return "improved", mp, mc, wins
    if spread > bound and not all_better:
        return "unresolved", mp, mc, wins
    if mp and sign * (mc - mp) / mp > bound:
        return "worse", mp, mc, wins
    return "unchanged", mp, mc, wins


def deterministic_verdict(name, p, c):
    if p == c:
        return "unchanged"
    if name.startswith("vt_"):
        return "moved"
    if name == "heap_peak_mb":
        d = statistics.median(b / a for a, b in zip(p, c) if a) - 1
        return "worse" if d > HEAP_BOUND else "improved" if d < -HEAP_BOUND else "unchanged"
    return "improved" if statistics.median(c) < statistics.median(p) else "worse"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    print("%-15s %-13s %5s %26s %26s %8s %5s  %s" % (
        "workload", "metric", "pairs", "parent median [q1, q3]",
        "change median [q1, q3]", "delta", "wins", "verdict"))
    for w in sorted(set(parent) | set(change)):
        seeds = sorted(set(parent.get(w, {})) & set(change.get(w, {})))
        if not seeds:
            print("%-15s no paired runs" % w)
            continue
        rows = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
        rows += [(n, "lower", 0.0) for n in DETERMINISTIC]
        for name, better, bound in rows:
            p = [parent[w][s][name]["value"] for s in seeds]
            c = [change[w][s][name]["value"] for s in seeds]
            if name in DETERMINISTIC:
                v = deterministic_verdict(name, p, c)
                mp, mc = statistics.median(p), statistics.median(c)
                wins = sum(1 for a, b in zip(p, c) if b < a)
            else:
                v, mp, mc, wins = verdict(p, c, better, bound)
            bad = bad or v in ("worse", "moved")
            pq, cq = quartiles(p), quartiles(c)
            delta = (mc - mp) / mp * 100 if mp else 0.0
            print("%-15s %-13s %5d %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %+7.2f%% %2d/%-2d  %s" % (
                w, name, len(seeds), mp, pq[0], pq[1], mc, cq[0], cq[1], delta, wins,
                len(seeds), v))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
