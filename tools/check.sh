#!/bin/sh
# Tier-1 verification gate (referenced from ROADMAP.md): everything a PR
# must keep green. Run from the repository root.
#
# `dune build @fmt` is NOT part of the gate: the toolchain image ships
# no ocamlformat binary, and dune's own dune-file formatting reports
# diffs for seed files this repo never reformatted. Revisit if
# ocamlformat is added to the image.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

echo "== perf smoke: bench sched --quick writes valid BENCH_sched.json"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
./_build/default/bench/main.exe sched --quick --out "$tmpdir/BENCH_sched.json" > /dev/null
python3 - "$tmpdir/BENCH_sched.json" <<'EOF'
import json, sys
b = json.load(open(sys.argv[1]))
assert b["bench"] == "sched"
for k in ("scan", "indexed"):
    assert b[k]["wall_s"] > 0 and b[k]["dispatch_per_s"] > 0
assert b["speedup_indexed_vs_scan"] > 0
EOF

echo "== perf smoke: bench campaign-scale --quick writes valid BENCH_campaign.json"
./_build/default/bench/main.exe campaign-scale --quick \
    --out "$tmpdir/BENCH_campaign.json" > /dev/null
python3 - "$tmpdir/BENCH_campaign.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["bench"] == "campaign-scale" and r["quick"] is True
assert r["services"] == 6
assert r["injections_total"] == r["injections_per_service"] * 6
assert r["host_cores"] >= 1
assert [row["j"] for row in r["jobs"]] == [1, 2, 4]
for row in r["jobs"]:
    assert row["wall_s"] > 0 and row["injections_per_s"] > 0
assert r["verify_bounds"]["violations"] == 0
assert r["verify_bounds"]["complete"] >= 1
EOF

echo "== perf gate: fresh campaign throughput against the committed baseline"
python3 tools/bench_diff.py BENCH_campaign.json "$tmpdir/BENCH_campaign.json"

echo "== perf smoke: sgtrace check passes on a -j 2 campaign stream"
./_build/default/bin/campaign.exe --iface lock -n 40 --seed 3 -j 2 \
    --trace "$tmpdir/trace.jsonl" > /dev/null 2>&1
./_build/default/bin/sgtrace.exe check --incomplete "$tmpdir/trace.jsonl" > /dev/null

echo "== parse gate: sgtrace check exits 2 on an out-of-range or sign-only number"
# a parse error, not an uncaught exception (exit 125)
for num in 99999999999999999999 -; do
    printf '{"seq":%s,"at_ns":0,"tid":0,"kind":"crash","cid":1,"detector":"x"}\n' \
        "$num" > "$tmpdir/bad_num.jsonl"
    rc=0
    ./_build/default/bin/sgtrace.exe check "$tmpdir/bad_num.jsonl" > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ]
done

echo "== profile smoke: sgtrace profile --json validates over the campaign stream"
./_build/default/bin/sgtrace.exe profile "$tmpdir/trace.jsonl" > /dev/null
./_build/default/bin/sgtrace.exe profile --json "$tmpdir/trace.jsonl" \
    > "$tmpdir/profile.json"
python3 - "$tmpdir/profile.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["version"] == 1 and r["schema"] == "sg-profile"
assert r["episodes_total"] >= 1 and r["episodes_complete"] >= 1
assert r["episodes_total"] == len(r["episodes"])
for e in r["episodes"]:
    p = e["phases"]
    for k in ("detect_reboot_ns", "reboot_walks_ns", "walks_access_ns"):
        assert p[k] >= 0, (e["seq"], k)
    assert e["span_ns"] >= 0 and e["critical_path_ns"] >= 0
    assert sum(p.values()) <= e["span_ns"]
    if e["complete"]:
        assert sum(p.values()) == e["span_ns"]
for a in r["attribution"]:
    assert a["reboot_ns"] >= 0 and a["walk_ns"] >= 0 and a["span_ns"] >= 0
    assert a["total_ns"] == a["reboot_ns"] + a["walk_ns"] + a["span_ns"]
EOF

echo "== determinism: -j 1 and -j 2 campaigns profile identically"
./_build/default/bin/campaign.exe --iface lock -n 40 --seed 3 -j 1 \
    --trace "$tmpdir/trace_j1.jsonl" > /dev/null 2>&1
./_build/default/bin/sgtrace.exe profile --json "$tmpdir/trace_j1.jsonl" \
    > "$tmpdir/profile_j1.json"
./_build/default/bin/sgtrace.exe profile --json "$tmpdir/trace.jsonl" \
    > "$tmpdir/profile_j2.json"
python3 - "$tmpdir/profile_j1.json" "$tmpdir/profile_j2.json" <<'EOF'
import json, sys
a = json.load(open(sys.argv[1])); b = json.load(open(sys.argv[2]))
a.pop("source", None); b.pop("source", None)
assert a == b, "episode profiles differ between -j 1 and -j 2"
EOF

echo "== determinism: campaign --profile output byte-identical at -j 1 and -j 2"
./_build/default/bin/campaign.exe --iface lock -n 40 --seed 3 --profile -j 1 \
    > "$tmpdir/campaign_profile_j1.out"
./_build/default/bin/campaign.exe --iface lock -n 40 --seed 3 --profile -j 2 \
    > "$tmpdir/campaign_profile_j2.out"
cmp "$tmpdir/campaign_profile_j1.out" "$tmpdir/campaign_profile_j2.out"

echo "== lint gate: sgc lint over idl/ and the builtins"
# exits 1 on any error-severity finding, 2 on compile errors (set -e)
./_build/default/bin/sgc.exe lint --builtins idl/*.sgidl > /dev/null
./_build/default/bin/sgc.exe lint --json --builtins idl/*.sgidl \
    > "$tmpdir/lint.json"
python3 - "$tmpdir/lint.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["version"] == 2 and r["schema"] == "sgc-lint"
assert r["errors"] == 0 and r["warnings"] == 0
for d in r["diagnostics"]:
    assert d["code"].startswith("SG") and d["severity"] == "info"
    assert d["file"] and d["line"] >= 1 and d["col"] >= 1
EOF

echo "== exit-code gate: every sgc report subcommand exits 2 on a compile error"
# lint --json still reports the compile diagnostics as its sgc-lint
# report on stdout; bound, taint and race print them on stderr only
for c in lint bound taint race; do
    for json in "" --json; do
        rc=0
        # shellcheck disable=SC2086
        ./_build/default/bin/sgc.exe "$c" $json test/fixtures/sg901_parse.sgidl \
            > "$tmpdir/sgc_err.out" 2> /dev/null || rc=$?
        [ "$rc" -eq 2 ]
        if [ "$c$json" = "lint--json" ]; then
            python3 - "$tmpdir/sgc_err.out" <<'EOF2'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "sgc-lint" and r["errors"] == 1
assert [d["code"] for d in r["diagnostics"]] == ["SG901"]
EOF2
        else
            [ ! -s "$tmpdir/sgc_err.out" ]
        fi
    done
done

echo "== bound gate: sgc bound over the six builtins"
# exits 1 if any (crashed, client) pair is unbounded
./_build/default/bin/sgc.exe bound --builtins > /dev/null
./_build/default/bin/sgc.exe bound --json --builtins > "$tmpdir/bound.json"
python3 - "$tmpdir/bound.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["version"] == 1 and r["schema"] == "sgc-bound"
assert len(r["services"]) == 6
for s in r["services"]:
    assert s["image_kb"] > 0 and s["reboot_ns"] > 0
    assert s["cap"] is not None and s["direct_ns"] is not None
assert len(r["pairs"]) == 36
for p in r["pairs"]:
    assert p["kind"] in ("direct", "transitive", "unrelated")
    assert p["bound_ns"] is not None and p["bound_ns"] > 0
EOF

echo "== bound cross-validation: no stitched episode exceeds the static bound"
# --verify-bounds recomputes the Wcr bound and exits 1 on any violation;
# run at both -j 1 and -j 2 (speculative chunks must not change spans)
./_build/default/bin/campaign.exe --iface sched -n 120 --seed 7 -j 1 \
    --verify-bounds > "$tmpdir/vb1.out" 2>&1
./_build/default/bin/campaign.exe --iface fs -n 120 --seed 7 -j 2 \
    --verify-bounds > "$tmpdir/vb2.out" 2>&1
grep -q "violations=0" "$tmpdir/vb1.out"
grep -q "violations=0" "$tmpdir/vb2.out"

echo "== dst gate: fixed-seed campaign over all six services passes clean"
./_build/default/bin/dst.exe run --seed 1 --count 10 -q > "$tmpdir/dst_run.out"
grep -q "0 failure(s), services=6" "$tmpdir/dst_run.out"

echo "== dst gate: --jobs campaign output byte-identical to the sequential run"
./_build/default/bin/dst.exe run --seed 1 --count 10 -j 1 > "$tmpdir/dst_run_j1.out"
./_build/default/bin/dst.exe run --seed 1 --count 10 -j 4 > "$tmpdir/dst_run_j4.out"
cmp "$tmpdir/dst_run_j1.out" "$tmpdir/dst_run_j4.out"

echo "== dst gate: cold-start -j 2 and -j 4 campaigns match -j 1, fresh process each"
# every process-wide value a pool task reads must be ready before the
# first task runs on any domain; a first-use race only shows in a fresh
# process, so each run is one. Probabilistic: it backs up that rule,
# it cannot prove it.
for seed in 175 266 329; do
    ./_build/default/bin/dst.exe run --seed "$seed" --count 30 -j 1 \
        > "$tmpdir/dst_cold_j1.out"
    for j in 2 4; do
        for _ in 1 2 3 4 5 6 7 8 9 10; do
            ./_build/default/bin/dst.exe run --seed "$seed" --count 30 -j "$j" \
                > "$tmpdir/dst_cold.out"
            cmp "$tmpdir/dst_cold_j1.out" "$tmpdir/dst_cold.out"
        done
    done
done

echo "== dst gate: a canned failing plan shrinks to a byte-identical repro at -j 1 and -j 2"
# the mutant run exits 1 (failure found) by contract; capture rc under set -e
rc=0
./_build/default/bin/dst.exe run --mutant mm/drop-terminal/0 --count 5 \
    --no-shrink --out "$tmpdir/dst_fail.json" -q > /dev/null || rc=$?
[ "$rc" -eq 1 ]
./_build/default/bin/dst.exe shrink --artifact "$tmpdir/dst_fail.json" \
    --out "$tmpdir/dst_min_j1.json" -j 1 > /dev/null
./_build/default/bin/dst.exe shrink --artifact "$tmpdir/dst_fail.json" \
    --out "$tmpdir/dst_min_j2.json" -j 2 > /dev/null
cmp "$tmpdir/dst_min_j1.json" "$tmpdir/dst_min_j2.json"
./_build/default/bin/dst.exe replay "$tmpdir/dst_min_j1.json" > /dev/null
# the same hunt at -j 2 must find the same failing seed and artifact
rc=0
./_build/default/bin/dst.exe run --mutant mm/drop-terminal/0 --count 5 \
    --no-shrink --out "$tmpdir/dst_fail_j2.json" -q -j 2 > /dev/null || rc=$?
[ "$rc" -eq 1 ]
cmp "$tmpdir/dst_fail.json" "$tmpdir/dst_fail_j2.json"

echo "== parse gate: superglue-dst exits 2 on a truncated or missing artifact"
# one error line and exit 2, not an uncaught exception (exit 125)
head -c 40 "$tmpdir/dst_min_j1.json" > "$tmpdir/dst_truncated.json"
for art in "$tmpdir/dst_truncated.json" "$tmpdir/no_such_artifact.json"; do
    rc=0
    ./_build/default/bin/dst.exe replay "$art" > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ]
    rc=0
    ./_build/default/bin/dst.exe shrink --artifact "$art" > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ]
done

echo "== artifact gate: superglue-dst exits 2 when an artifact cannot be written"
# a missing --out-dir is refused before the campaign runs (cmdliner,
# exit 124, nothing on stdout); a failed write after the work is done
# is one error line and exit 2, not an uncaught Sys_error (exit 125)
rc=0
./_build/default/bin/dst.exe race --seed 1100 --per-entry 1 \
    --out-dir "$tmpdir/no_such_dir" > "$tmpdir/dst_nodir.out" 2> /dev/null || rc=$?
[ "$rc" -eq 124 ]
[ ! -s "$tmpdir/dst_nodir.out" ]
rc=0
./_build/default/bin/dst.exe run --mutant mm/drop-terminal/0 --count 5 \
    --no-shrink --out "$tmpdir/no_such_dir/x.json" -q > /dev/null \
    2> "$tmpdir/dst_nowrite.err" || rc=$?
[ "$rc" -eq 2 ]
[ "$(wc -l < "$tmpdir/dst_nowrite.err")" -eq 1 ]
mkdir -p "$tmpdir/witness_dir/race_fs_fs_tlseek.json"
rc=0
./_build/default/bin/dst.exe race --seed 1100 --per-entry 1 -q \
    --out-dir "$tmpdir/witness_dir" > /dev/null 2> "$tmpdir/dst_nowrite.err" || rc=$?
[ "$rc" -eq 2 ]
[ "$(wc -l < "$tmpdir/dst_nowrite.err")" -eq 1 ]

echo "== taint gate: sgc taint over the six builtins is finding-free"
# exits 1 on any SG016-SG019 finding, 2 on compile errors
./_build/default/bin/sgc.exe taint --builtins > /dev/null
./_build/default/bin/sgc.exe taint --json --builtins > "$tmpdir/taint.json"
python3 - "$tmpdir/taint.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["version"] == 1 and r["schema"] == "sgc-taint"
assert r["errors"] == 0 and r["diagnostics"] == []
assert r["edges"] == 23 and r["fields"] == 118
assert r["masked"] + r["detected"] + r["silent"] == r["fields"]
assert len(r["entries"]) == r["fields"]
for e in r["entries"]:
    assert e["verdict"] in ("masked", "detected", "silent")
    assert e["iface"] and e["fn"] and e["field"] and e["reason"]
EOF

echo "== adversary gate: pinned campaign matches the static verdicts, -j independent"
# every silent verdict gets a witness, no masked/detected edge fails
# silently (exit 1 on any mismatch), and the full report is
# byte-identical across job counts
./_build/default/bin/dst.exe adversary --seed 1000 --per-entry 18 -j 1 \
    > "$tmpdir/adv_j1.out"
./_build/default/bin/dst.exe adversary --seed 1000 --per-entry 18 -j 2 \
    > "$tmpdir/adv_j2.out"
cmp "$tmpdir/adv_j1.out" "$tmpdir/adv_j2.out"
grep -q "118 entr(ies), 18 witness(es), 0 mismatch(es)" "$tmpdir/adv_j1.out"

echo "== race gate: sgc race over the six builtins is finding-free"
# exits 1 on any SG021-SG025 finding, 2 on compile errors
./_build/default/bin/sgc.exe race --builtins > /dev/null
./_build/default/bin/sgc.exe race --json --builtins > "$tmpdir/race.json"
python3 - "$tmpdir/race.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["version"] == 1 and r["schema"] == "sgc-race"
assert r["errors"] == 0 and r["diagnostics"] == []
assert r["pairs"] == 138 and len(r["entries"]) == r["pairs"]
assert (r["isolated"], r["serialized"], r["racy"]) == (113, 20, 5)
assert len(r["walks"]) == 6
for e in r["entries"]:
    assert e["verdict"] in ("isolated", "serialized", "racy")
    assert e["walker"] and e["iface"] and e["fn"] and e["phase"] and e["reason"]
EOF

echo "== race gate: pinned recovery-racing campaign matches the verdicts, -j independent"
# every racy verdict is discharged (silent in-walk witness or sustained
# zero-detection acceptance), no isolated/serialized pair goes silent
# (exit 1 on any mismatch), and the report is byte-identical across -j
./_build/default/bin/dst.exe race --seed 1100 --per-entry 6 -j 1 \
    > "$tmpdir/race_j1.out"
./_build/default/bin/dst.exe race --seed 1100 --per-entry 6 -j 2 \
    > "$tmpdir/race_j2.out"
cmp "$tmpdir/race_j1.out" "$tmpdir/race_j2.out"
grep -q "race: 138 pair(s), 5 racy, 3 witness(es), 0 mismatch(es)" \
    "$tmpdir/race_j1.out"

echo "== webbench gate: open-loop sg-webbench report validates"
./_build/default/bin/webbench.exe open-loop --requests 2000 --seed 42 \
    --fault-period-ms 0,3 --json -j 1 > "$tmpdir/webbench_j1.json"
python3 - "$tmpdir/webbench_j1.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "sg-webbench" and r["version"] == 1
assert r["mode"] == "superglue" and r["requests"] == 2000
assert [run["fault_period_ms"] for run in r["runs"]] == [0, 3]
for run in r["runs"]:
    j = run["join"]
    assert (j["offered"] == j["served"] + j["errors"] + j["dropped"]
            + j["failed"] == r["requests"])
    for pop in ("all", "clean", "shadowed"):
        lat = j["latency"][pop]
        if lat["n"]:
            assert (lat["min_ns"] <= lat["p50_ns"] <= lat["p99_ns"]
                    <= lat["p999_ns"] <= lat["max_ns"])
clean = r["runs"][0]["join"]
assert clean["episodes_total"] == 0 and clean["latency"]["shadowed"]["n"] == 0
faulted = r["runs"][1]["join"]
assert faulted["episodes_total"] >= 1
assert faulted["latency"]["shadowed"]["n"] >= 1
assert len(faulted["episodes"]) == faulted["episodes_total"]
assert any(e["requests"] > 0 for e in faulted["episodes"])
EOF

echo "== webbench gate: open-loop rejects a zero or NaN rate and zero workers with exit 2"
for bad in "--rate 0" "--rate nan" "--workers 0"; do
    rc=0
    # shellcheck disable=SC2086
    ./_build/default/bin/webbench.exe open-loop --requests 200 $bad --json \
        > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ]
done

echo "== webbench gate: open-loop report byte-identical at -j 1 and -j 2"
./_build/default/bin/webbench.exe open-loop --requests 2000 --seed 42 \
    --fault-period-ms 0,3 --json -j 2 > "$tmpdir/webbench_j2.json"
cmp "$tmpdir/webbench_j1.json" "$tmpdir/webbench_j2.json"

echo "== perf smoke: bench web-tail --quick writes valid BENCH_web.json"
./_build/default/bench/main.exe web-tail --quick \
    --out "$tmpdir/BENCH_web.json" > /dev/null
python3 - "$tmpdir/BENCH_web.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["bench"] == "web-tail" and r["quick"] is True
assert r["mode"] == "superglue" and r["requests"] >= 1
assert [row["j"] for row in r["jobs"]] == [1, 2, 4]
for row in r["jobs"]:
    assert row["wall_s"] > 0 and row["req_per_s"] > 0
assert [row["fault_period_ms"] for row in r["rows"]] == [0, 3, 1]
EOF

echo "== perf gate: fresh web-tail throughput against the committed baseline"
python3 tools/bench_diff.py BENCH_web.json "$tmpdir/BENCH_web.json"

echo "== tier-1 gate OK"
