#!/usr/bin/env python3
"""Host-time benchmark: build the suite, run one workload (or all), report.

    python3 hostbench/run.py [--workload W] [--seed N] [--seconds S]
                             [--trace 0|1] [--ops N] [--out DIR] [--exe PATH]

Run from the repository root. The suite is built from source with dune
(into _build/, no shared cache), unless --exe names a built suite.exe.
Each workload runs in its own fresh single-domain process.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
host times scaled to a nominal host speed (see calib.ml). Set-up time
(setup_s) is measured here: the median, over several spawned
`suite.exe setup` processes, of the time from spawning one to the
moment it is ready for its first op. With --trace 1 the metrics are
the per-layer ones. The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}; without --workload all
four workloads run and the last line holds one such object per workload.
The exit code is 0 when every output checked correct, 1 when a check
failed, 2 when the suite could not be built or run.

--out DIR writes each run's full report (every metric, the virtual-time
and failure metrics, sample counts, failing seeds) to
DIR/<workload>-s<seed>-t<trace>.json, and a traced run's spans to
DIR/<workload>-s<seed>.spans.jsonl; compare.py reads such directories.
--ops sets the ops in one pass over a workload's input set (default: the
benchmark's size); the smoke test uses it to run at tiny sizes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["campaign", "campaign-trace", "dst", "web"]
SETUP_SAMPLES = 9
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = HERE.parent / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(root):
    # the suite links the repository's libraries: without them there is
    # nothing to measure
    for need in ("dune-project", "lib", "hostbench/dune"):
        if not (root / need).exists():
            fail("%s is not a checkout of the repository (no %s)" % (root, need))
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
             "hostbench/suite.exe"],
            cwd=root, env=env, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail("build failed (dune exit %d)" % r.returncode)
    return root / "_build" / "default" / "hostbench" / "suite.exe"


def call(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (" ".join(cmd), e))


def setup_seconds(exe, workload, seed, ops):
    """Median time from spawning a suite process to its first op, each
    scaled to the nominal host by the factor that process measured after
    it was ready (as the suite scales its op times)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic_ns()  # CLOCK_MONOTONIC, as the suite's clock
        r = call([str(exe), "setup", "--workload", workload, "--seed", str(seed)] + ops)
        if r.returncode != 0:
            sys.stderr.write(r.stderr)
            fail("set-up of %s failed (exit %d)" % (workload, r.returncode))
        out = dict(line.split() for line in r.stdout.splitlines())
        samples.append((int(out["ready_ns"]) - start) / 1e9 * float(out["host_factor"]))
    return statistics.median(samples)


def run_workload(exe, spec, args, workload):
    ops = ["--ops", str(args.ops)] if args.ops else []
    cmd = [str(exe), "run", "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)] + ops
    report_path = None
    if args.out:
        stem = "%s-s%d" % (workload, args.seed)
        report_path = Path(args.out) / ("%s-t%d.json" % (stem, args.trace))
        cmd += ["--json", str(report_path)]
        if args.trace:
            cmd += ["--spans", str(Path(args.out) / (stem + ".spans.jsonl"))]
    r = call(cmd)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        sys.stderr.write(r.stderr)
        fail("%s run failed (exit %d)" % (workload, r.returncode))
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    if not args.trace:
        setup_s = setup_seconds(exe, workload, args.seed, ops)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        print("  %-28s %16.6g %-6s (median of %d spawned set-ups)"
              % ("setup_s", setup_s, "s", SETUP_SAMPLES))
        if report_path:
            report = json.loads(report_path.read_text())
            report["metrics"]["setup_s"] = metrics["setup_s"]
            report_path.write_text(json.dumps(report) + "\n")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        fail("%s reports metrics %s, BENCHMARK.json declares %s"
             % (workload, sorted(got.items()), sorted(want.items())))
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    return result


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--ops", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--exe")
    args = p.parse_args()

    exe = Path(args.exe) if args.exe else build(Path.cwd())
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    workloads = [args.workload] if args.workload else WORKLOADS
    results = {}
    for w in workloads:
        results[w] = run_workload(exe, spec, args, w)
    correct = all(r["correct"] for r in results.values())
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
