#!/usr/bin/env python3
"""Smoke test of the host-time benchmark at tiny sizes.

    python3 smoke.py SUITE_EXE

Runs hostbench/run.py with the given suite executable (no build) on
every workload, twice untraced with one seed and once traced, and
asserts that

  - every run checks correct;
  - every metric BENCHMARK.json declares is reported with its unit, for
    every workload, by the untraced and by the traced runs;
  - vt_p50_ns, vt_p99_ns, fail_share and heap_peak_mb are
    byte-identical across the two runs of one seed;
  - in the traced run every op's spans nest inside their parents without
    overlap, and the self times of its layer spans plus its unattributed
    time add up exactly to the op's time (checked on the written spans),
    agreeing with the reported unattributed_share.
"""

import json
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["campaign", "campaign-trace", "dst", "web"]
DETERMINISTIC = ["vt_p50_ns", "vt_p99_ns", "fail_share", "heap_peak_mb"]


def run(exe, out, trace):
    r = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--exe", exe, "--seed", "3",
         "--seconds", "0.01", "--ops", "6", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, "run.py exit %d\n%s%s" % (r.returncode, r.stdout, r.stderr)
    results = json.loads(r.stdout.strip().splitlines()[-1])
    assert sorted(results) == sorted(WORKLOADS), results.keys()
    for w, res in results.items():
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (w, res)
    return results


def declared(spec, key, results):
    want = {m["name"]: m["unit"] for m in spec[key]}
    for w, res in results.items():
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        assert got == want, (w, key, sorted(set(got.items()) ^ set(want.items())))
        for k, v in res["metrics"].items():
            assert isinstance(v["value"], (int, float)), (w, k, v)


def check_spans(path, report):
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert spans, path
    tree = defaultdict(list)
    for s in spans:
        if not s["reprobe"] and s["parent"] >= 0:
            tree[s["parent"]].append(s)
    self_sum = op_sum = unattributed = 0
    for root in spans:
        if root["name"] != "op" or root["source"] != "own":
            continue
        total_self = 0
        stack = [root]
        while stack:
            s = stack.pop()
            kids = sorted(tree[s["id"]], key=lambda k: k["start_ns"])
            edge = s["start_ns"]
            for k in kids:
                assert k["op"] == root["op"], (k, root)
                assert edge <= k["start_ns"] <= k["end_ns"] <= s["end_ns"], (s, k)
                edge = k["end_ns"]
            self_ns = (s["end_ns"] - s["start_ns"]) - sum(k["end_ns"] - k["start_ns"] for k in kids)
            assert self_ns >= 0, s
            total_self += self_ns
            if s is root:
                unattributed += self_ns
            stack.extend(kids)
        duration = root["end_ns"] - root["start_ns"]
        assert total_self == duration, (root, total_self, duration)
        self_sum += total_self
        op_sum += duration
    assert op_sum > 0 and self_sum == op_sum, path
    share = report["per_layer"]["unattributed_share"]["value"]
    assert abs(share - unattributed / op_sum) < 1e-9, (path, share, unattributed / op_sum)


def main():
    exe = str(Path(sys.argv[1]).resolve())
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        tmp = Path(tmp)
        first, second, traced = (run(exe, tmp / d, t) for d, t in
                                 (("a", 0), ("b", 0), ("t", 1)))
        declared(spec, "end_to_end", first)
        declared(spec, "per_layer", traced)
        for w in WORKLOADS:
            a = json.loads((tmp / "a" / ("%s-s3-t0.json" % w)).read_text())["metrics"]
            b = json.loads((tmp / "b" / ("%s-s3-t0.json" % w)).read_text())["metrics"]
            for m in DETERMINISTIC:
                assert json.dumps(a[m]) == json.dumps(b[m]), (w, m, a[m], b[m])
            report = json.loads((tmp / "t" / ("%s-s3-t1.json" % w)).read_text())
            check_spans(tmp / "t" / ("%s-s3.spans.jsonl" % w), report)
    print("hostbench smoke: ok")


if __name__ == "__main__":
    main()
