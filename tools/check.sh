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

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# pinned MD5 FILE WHAT: FILE's md5 must be MD5, a digest computed with
# the binaries of an earlier commit (CHANGES.md says which); a change
# that moves one on purpose re-pins it and states old -> new.
pinned() {
    got=$(md5sum < "$2" | cut -d' ' -f1)
    if [ "$got" != "$1" ]; then
        echo "identity gate: $3 has md5 $got, pinned $1" >&2
        exit 1
    fi
}

echo "== trace smoke: sgtrace check passes on a -j 2 campaign stream"
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

echo "== dump gate: sgtrace dump under a crash storm passes check; an unconverged storm exits 1"
./_build/default/bin/sgtrace.exe dump --iface evt --storm 7 > "$tmpdir/dump_evt.jsonl"
./_build/default/bin/sgtrace.exe check --recovery-mode ondemand \
    "$tmpdir/dump_evt.jsonl" > /dev/null
# pinned with the binaries of the commit before the list-scan dispatcher
# was retired
pinned 181a8b2ad3ccefbf0e19456060d52885 "$tmpdir/dump_evt.jsonl" \
    "sgtrace dump --iface evt --storm 7"
# a lock crash on every dispatch cannot converge: one stderr line naming
# how the run ended, nothing on stdout, exit 1 (not an uncaught exception)
rc=0
./_build/default/bin/sgtrace.exe dump --iface lock --storm 1 \
    > "$tmpdir/dump_lock.out" 2> "$tmpdir/dump_lock.err" || rc=$?
[ "$rc" -eq 1 ]
[ ! -s "$tmpdir/dump_lock.out" ]
[ "$(wc -l < "$tmpdir/dump_lock.err")" -eq 1 ]
rc=0
./_build/default/bin/sgtrace.exe dump --storm 0 > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ]

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

echo "== bound gate: a million injections, every stitched episode complete and within its bound"
# 166666 faults into each of the six services at -j 2 (885,998
# episodes). The md5 was pinned from -j 1 runs with the binaries of the
# commit before this stage, so it holds the rows and bound checks to
# their bytes across commits and across -j alike.
for i in sched mm fs lock evt timer; do
    ./_build/default/bin/campaign.exe --iface "$i" -n 166666 --seed 1 -j 2 \
        --verify-bounds
done > "$tmpdir/million.out"
python3 - "$tmpdir/million.out" <<'EOF'
import sys
rows = [dict(kv.split("=") for kv in l.split()[2:])
        for l in open(sys.argv[1]) if l.startswith("bound-check ")]
assert len(rows) == 6
for r in rows:
    assert r["violations"] == "0" and r["complete"] == r["episodes"], r
assert sum(int(r["episodes"]) for r in rows) == 885998
EOF
pinned 83e49af4ebd95aa05397785f7bb0100a "$tmpdir/million.out" \
    "superglue-campaign --iface (each) -n 166666 --seed 1 --verify-bounds"

echo "== exit-code gate: superglue-campaign exits 2 with one line on an unknown --iface"
rc=0
./_build/default/bin/campaign.exe --iface bogus -n 10 > "$tmpdir/campaign_bogus.out" \
    2> "$tmpdir/campaign_bogus.err" || rc=$?
[ "$rc" -eq 2 ]
[ ! -s "$tmpdir/campaign_bogus.out" ]
[ "$(cat "$tmpdir/campaign_bogus.err")" = \
    "superglue-campaign: unknown interface bogus (have: sched mm fs lock evt timer)" ]

echo "== dst gate: fixed-seed campaign over all six services passes clean, byte-identical at -j 1 and -j 4"
# seeds 1..3000: the crash, divert and walk paths of the invocation loop
# under thousands of generated plans (the first known fatal seed, 5692,
# lies beyond this range; see ROADMAP.md item 1). The last line is the
# summary; with no failure nothing is shrunk, so both outputs carry the
# md5 pinned earlier for the same run with --no-shrink -j 2.
./_build/default/bin/dst.exe run --seed 1 --count 3000 -j 1 > "$tmpdir/dst_run_j1.out"
./_build/default/bin/dst.exe run --seed 1 --count 3000 -j 4 > "$tmpdir/dst_run_j4.out"
tail -n 1 "$tmpdir/dst_run_j1.out" | grep -q "0 failure(s), services=6"
pinned 556a15b7701836e76a5ba65c18df0037 "$tmpdir/dst_run_j1.out" \
    "superglue-dst run --seed 1 --count 3000 -j 1"
pinned 556a15b7701836e76a5ba65c18df0037 "$tmpdir/dst_run_j4.out" \
    "superglue-dst run --seed 1 --count 3000 -j 4"

echo "== dst gate: run exits 2 with one line on a non-positive --count"
for count in 0 -1; do
    rc=0
    ./_build/default/bin/dst.exe run --count="$count" > "$tmpdir/dst_count.out" \
        2> "$tmpdir/dst_count.err" || rc=$?
    [ "$rc" -eq 2 ]
    [ ! -s "$tmpdir/dst_count.out" ]
    [ "$(wc -l < "$tmpdir/dst_count.err")" -eq 1 ]
done

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
# one error line and exit 2, not an uncaught exception (exit 125); an
# artifact naming an unknown service or a classic shape below 1 is
# malformed too, refused when it is parsed
head -c 40 "$tmpdir/dst_min_j1.json" > "$tmpdir/dst_truncated.json"
dst_probe() {
    printf '{"version":1,"schema":"superglue-dst","sut":"superglue","seed":1,"verdict":"postcond","workload":%s,"plan":[%s]}\n' \
        "$2" "$3" > "$tmpdir/$1.json"
}
dst_probe dst_bogus_iface '{"kind":"classic","iface":"bogus","iters":2,"knob":1}' ''
dst_probe dst_bad_knob '{"kind":"classic","iface":"lock","iters":2,"knob":-5}' ''
dst_probe dst_bogus_restart '{"kind":"ops","ops":[{"op":"restart","service":"bogus"}]}' ''
dst_probe dst_bogus_crash '{"kind":"ops","ops":[{"op":"mm_cycle","fanout":1}]}' \
    '{"fault":"crash","service":"bogus","nth":1}'
for art in "$tmpdir/dst_truncated.json" "$tmpdir/no_such_artifact.json" \
    "$tmpdir/dst_bogus_iface.json" "$tmpdir/dst_bad_knob.json" \
    "$tmpdir/dst_bogus_restart.json" "$tmpdir/dst_bogus_crash.json"; do
    rc=0
    ./_build/default/bin/dst.exe replay "$art" > /dev/null 2> "$tmpdir/dst_parse.err" || rc=$?
    [ "$rc" -eq 2 ]
    [ "$(wc -l < "$tmpdir/dst_parse.err")" -eq 1 ]
    rc=0
    ./_build/default/bin/dst.exe shrink --artifact "$art" > /dev/null \
        2> "$tmpdir/dst_parse.err" || rc=$?
    [ "$rc" -eq 2 ]
    [ "$(wc -l < "$tmpdir/dst_parse.err")" -eq 1 ]
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

echo "== output gate: sgtrace dump -o, sgc compile -o, superglue-campaign --trace and superglue-dst replay --trace exit 2 on an unwritable path"
# one error line, nothing on stdout, not an uncaught Sys_error (exit 125)
for cmd in "sgtrace.exe dump --iface lock -o" "sgc.exe compile --builtin lock -o" \
    "campaign.exe --iface lock -n 5 --trace" \
    "dst.exe replay $tmpdir/dst_min_j1.json --trace"; do
    rc=0
    # shellcheck disable=SC2086 # $cmd is a binary and its flags
    ./_build/default/bin/$cmd "$tmpdir/no_such_dir/out" > "$tmpdir/out_nowrite.out" \
        2> "$tmpdir/out_nowrite.err" || rc=$?
    [ "$rc" -eq 2 ]
    [ ! -s "$tmpdir/out_nowrite.out" ]
    [ "$(wc -l < "$tmpdir/out_nowrite.err")" -eq 1 ]
done

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
assert r["runs"][0]["faults"] == 0 and r["runs"][0]["reboots"] == 0
clean = r["runs"][0]["join"]
assert clean["episodes_total"] == 0 and clean["latency"]["shadowed"]["n"] == 0
faulted = r["runs"][1]["join"]
assert faulted["episodes_total"] >= 1
assert faulted["latency"]["shadowed"]["n"] >= 1
assert len(faulted["episodes"]) == faulted["episodes_total"]
assert any(e["requests"] > 0 for e in faulted["episodes"])
assert any(e["complete"] for e in faulted["episodes"])
EOF

echo "== webbench gate: rejects a zero or NaN rate, zero workers and a non-positive fault period with exit 2"
# open-loop takes 0 as its fault-free period but no negative one; fig7
# takes no period <= 0 (a SWIFI thread that sleeps 0 ns starves the
# clients). One error line each, before any run.
for bad in "open-loop --rate 0 --json" "open-loop --rate nan --json" \
    "open-loop --workers 0 --json" "open-loop --fault-period-ms=-1 --json" \
    "fig7 --mode superglue --fault-period-ms=0" \
    "fig7 --mode superglue --fault-period-ms=-1"; do
    rc=0
    # shellcheck disable=SC2086
    ./_build/default/bin/webbench.exe $bad --requests 200 \
        > "$tmpdir/webbench_bad.out" 2> "$tmpdir/webbench_bad.err" || rc=$?
    [ "$rc" -eq 2 ]
    [ ! -s "$tmpdir/webbench_bad.out" ]
    [ "$(wc -l < "$tmpdir/webbench_bad.err")" -eq 1 ]
done

echo "== webbench gate: open-loop report byte-identical at -j 1 and -j 2"
./_build/default/bin/webbench.exe open-loop --requests 2000 --seed 42 \
    --fault-period-ms 0,3 --json -j 2 > "$tmpdir/webbench_j2.json"
cmp "$tmpdir/webbench_j1.json" "$tmpdir/webbench_j2.json"

echo "== identity gate: outputs byte-identical to digests pinned at an earlier commit"
# The -j gates above compare two runs of one build, so a change that
# moves every run alike passes them. These md5s were computed with the
# binaries of the commit before the stub plan unless noted (CHANGES.md
# says how).
# The two webbench reports are pinned with the binaries of the commit
# that stitches run_open's episodes live, so that they complete.
./_build/default/bin/webbench.exe open-loop --requests 20000 --seed 42 \
    --fault-period-ms 1 --json > "$tmpdir/pin_web.json"
pinned 8fd6bdeab235e9c6ff37e0acf4fdbb8d "$tmpdir/pin_web.json" \
    "webbench open-loop --requests 20000 --seed 42 --fault-period-ms 1 --json"
# the fault-free and 3 ms report of the -j gate above: it holds the
# fault-free join to its bytes across commits, not only across -j
pinned 47752629948eb55128780245e83ad607 "$tmpdir/webbench_j1.json" \
    "webbench open-loop --requests 2000 --seed 42 --fault-period-ms 0,3 --json -j 1"
# the 3000-seed superglue-dst run is pinned in the dst gate above
# the -j 1 --trace stream of the determinism gate above
pinned a9d6675d2478e4c2ebe48e34fa696b31 "$tmpdir/trace_j1.jsonl" \
    "superglue-campaign --iface lock -n 40 --seed 3 --trace"
# Table II over all six services, and two --cmon --verify-bounds streams
# pinned with the binaries of the commit before the indexed register-use
# classification: evt grows its global-descriptor registry across
# thousands of reboots (the G0 reseed), sched reaches the --cmon hang path
./_build/default/bin/campaign.exe -n 2000 --seed 5 -j 2 > "$tmpdir/pin_table2.out"
pinned 920beef364fff7700c85531cae55b4da "$tmpdir/pin_table2.out" \
    "superglue-campaign -n 2000 --seed 5 -j 2"
./_build/default/bin/campaign.exe --iface evt -n 3000 --seed 9 --cmon \
    --verify-bounds --trace "$tmpdir/pin_evt.jsonl" > /dev/null 2>&1
pinned fbfb34dd800c6bff803f607a3d3934d7 "$tmpdir/pin_evt.jsonl" \
    "superglue-campaign --iface evt -n 3000 --seed 9 --cmon --verify-bounds --trace"
./_build/default/bin/campaign.exe --iface sched -n 3000 --seed 9 --cmon \
    --verify-bounds --trace "$tmpdir/pin_sched.jsonl" > /dev/null 2>&1
pinned 549094708697475425afb70c07219b5f "$tmpdir/pin_sched.jsonl" \
    "superglue-campaign --iface sched -n 3000 --seed 9 --cmon --verify-bounds --trace"
# The trace read side over the evt stream, pinned with the binaries of
# the commit before the per-domain scanner slots: sgtrace check on a
# copy with every 37th line dropped (exit 1), once without its
# end-of-stream reports and once sorted, as those reports follow the
# checker's key order; and sgtrace profile --json read from stdin, so
# that its source is <stdin>, not a path.
awk 'NR % 37 != 0' "$tmpdir/pin_evt.jsonl" > "$tmpdir/pin_evt_damaged.jsonl"
rc=0
./_build/default/bin/sgtrace.exe check "$tmpdir/pin_evt_damaged.jsonl" \
    > "$tmpdir/pin_check.out" || rc=$?
[ "$rc" -eq 1 ]
grep -v end-of-stream "$tmpdir/pin_check.out" > "$tmpdir/pin_check_fold.out"
pinned 0f4b41dbd1d50347125ad5cb5f1abcb7 "$tmpdir/pin_check_fold.out" \
    "sgtrace check (evt stream, every 37th line dropped), end-of-stream lines removed"
LC_ALL=C sort "$tmpdir/pin_check.out" > "$tmpdir/pin_check_sorted.out"
pinned e51d57edf430a71a8ce6d4ddba0e2bf0 "$tmpdir/pin_check_sorted.out" \
    "sgtrace check (evt stream, every 37th line dropped), sorted"
# A DST stream: the dst gate's unshrunk mutant repro, replayed with
# --trace, passes sgtrace check whole, and sgtrace check on a copy with
# every 5th line dropped (exit 1) is pinned with the sgtrace of the
# commit before the per-thread checker.
./_build/default/bin/dst.exe replay "$tmpdir/dst_fail.json" \
    --trace "$tmpdir/pin_dst_replay.jsonl" > /dev/null
./_build/default/bin/sgtrace.exe check "$tmpdir/pin_dst_replay.jsonl" > /dev/null
awk 'NR % 5 != 0' "$tmpdir/pin_dst_replay.jsonl" > "$tmpdir/pin_dst_damaged.jsonl"
rc=0
./_build/default/bin/sgtrace.exe check "$tmpdir/pin_dst_damaged.jsonl" \
    > "$tmpdir/pin_dst_check.out" || rc=$?
[ "$rc" -eq 1 ]
pinned 4c96b1f91db7cdbe118b36615a95b95e "$tmpdir/pin_dst_check.out" \
    "sgtrace check (replayed DST stream, every 5th line dropped)"
./_build/default/bin/sgtrace.exe profile --json < "$tmpdir/pin_evt.jsonl" \
    > "$tmpdir/pin_profile.json"
pinned 6c763833ebb8eac93196a9a8793df525 "$tmpdir/pin_profile.json" \
    "sgtrace profile --json < (evt stream)"
# The offline latency fold behind the two summary printers, pinned with
# the binaries of the commit before it left the live metrics fold: bench
# obs, and sgtrace summary on the evt stream and on its damaged copy
# (unknown span ends, walk ends that match no open walk).
./_build/default/bench/main.exe obs > "$tmpdir/pin_obs.out"
pinned 63d45243aae7a31ee7056bed9562654b "$tmpdir/pin_obs.out" "bench/main.exe obs"
./_build/default/bin/sgtrace.exe summary "$tmpdir/pin_evt.jsonl" \
    > "$tmpdir/pin_summary.out"
pinned 314d652841fbff0a7252105383dcf20b "$tmpdir/pin_summary.out" \
    "sgtrace summary (evt stream)"
./_build/default/bin/sgtrace.exe summary "$tmpdir/pin_evt_damaged.jsonl" \
    > "$tmpdir/pin_summary_damaged.out"
pinned 4764800f630af2b7cdca8ee97d21c123 "$tmpdir/pin_summary_damaged.out" \
    "sgtrace summary (evt stream, every 37th line dropped)"
# Fig 7 and the ablation, pinned with the binaries of the commit before
# they stitched episodes through an unboxed subscriber; they also read
# the live reboot and per-client walk counters.
./_build/default/bench/main.exe fig7 ablation > "$tmpdir/pin_fig7.out"
pinned 91593811cdc9b614c7d4700e3ae4110a "$tmpdir/pin_fig7.out" \
    "bench/main.exe fig7 ablation"

echo "== tier-1 gate OK"
