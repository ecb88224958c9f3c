#!/bin/sh
# Tier-1 verification gate (referenced from ROADMAP.md): everything a PR
# must keep green. Run from the repository root.
#
# `dune build @fmt` is NOT part of the gate: the toolchain image ships
# no ocamlformat binary, and dune's own dune-file formatting reports
# diffs for seed files this repo never reformatted. Revisit if
# ocamlformat is added to the image.
#
# The stages run the binaries and leave their outputs in $tmpdir. Three
# helpers check as they go: expect_exit (exit code, stdout and stderr
# rules), same_bytes (the -j identity gates) and die (the one stderr
# line of any failed gate). Two declared tables at the end check the
# rest: the md5 pin table and the JSON/text report validator.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
B=./_build/default

die() {
    echo "check.sh: $*" >&2
    exit 1
}

# expect_exit CODE [empty] [one-line | =TEXT] CMD...: run CMD with its
# stdout in $tmpdir/out and its stderr in $tmpdir/err, and require exit
# CODE; with `empty` an empty stdout, with `one-line` exactly one stderr
# line, with `=TEXT` a stderr of exactly TEXT.
expect_exit() {
    want="exit $1"
    shift
    out=
    if [ "$1" = empty ]; then
        out=empty
        want="$want, empty stdout"
        shift
    fi
    err=$1
    case $err in
        one-line) want="$want, 1 stderr line(s)" && shift ;;
        =*) want="$want, stderr ${err#=}" && shift ;;
        *) err= ;;
    esac
    rc=0
    "$@" > "$tmpdir/out" 2> "$tmpdir/err" || rc=$?
    got="exit $rc"
    if [ -n "$out" ]; then
        [ -s "$tmpdir/out" ] && got="$got, non-empty stdout" || got="$got, empty stdout"
    fi
    case $err in
        one-line) got="$got, $(($(wc -l < "$tmpdir/err"))) stderr line(s)" ;;
        =*) got="$got, stderr $(cat "$tmpdir/err")" ;;
    esac
    [ "$got" = "$want" ] || die "$*: expected $want; got $got"
}

same_bytes() {
    cmp -s "$1" "$2" || die "-j identity: $1 and $2 differ"
}

echo "== trace gate: a -j 2 campaign stream passes sgtrace check, profiles, and is byte-identical to -j 1"
# sg-profile is a function of the stream (apart from its source), so
# equal streams profile alike
for j in 1 2; do
    $B/bin/campaign.exe --iface lock -n 40 --seed 3 -j "$j" \
        --trace "$tmpdir/trace_j$j.jsonl" > /dev/null 2>&1
done
same_bytes "$tmpdir/trace_j1.jsonl" "$tmpdir/trace_j2.jsonl"
$B/bin/sgtrace.exe check --incomplete "$tmpdir/trace_j2.jsonl" > /dev/null
$B/bin/sgtrace.exe profile "$tmpdir/trace_j2.jsonl" > /dev/null
$B/bin/sgtrace.exe profile --json "$tmpdir/trace_j2.jsonl" > "$tmpdir/profile.json"

echo "== parse gate: sgtrace check exits 2 on an out-of-range or sign-only number"
# a parse error, not an uncaught exception (exit 125)
for num in 99999999999999999999 -; do
    printf '{"seq":%s,"at_ns":0,"tid":0,"kind":"crash","cid":1,"detector":"x"}\n' \
        "$num" > "$tmpdir/bad_num.jsonl"
    expect_exit 2 $B/bin/sgtrace.exe check "$tmpdir/bad_num.jsonl"
done

echo "== dump gate: sgtrace dump under a crash storm passes check; an unconverged storm exits 1"
$B/bin/sgtrace.exe dump --iface evt --storm 7 > "$tmpdir/dump_evt.jsonl"
$B/bin/sgtrace.exe check --recovery-mode ondemand "$tmpdir/dump_evt.jsonl" > /dev/null
# a lock crash on every dispatch cannot converge: one stderr line naming
# how the run ended, nothing on stdout, exit 1 (not an uncaught exception)
expect_exit 1 empty one-line $B/bin/sgtrace.exe dump --iface lock --storm 1
expect_exit 2 $B/bin/sgtrace.exe dump --storm 0

echo "== determinism: campaign --profile output byte-identical at -j 1 and -j 2"
for j in 1 2; do
    $B/bin/campaign.exe --iface lock -n 40 --seed 3 --profile -j "$j" \
        > "$tmpdir/campaign_profile_j$j.out"
done
same_bytes "$tmpdir/campaign_profile_j1.out" "$tmpdir/campaign_profile_j2.out"

echo "== sgc gate: lint, bound, taint and race over idl/ and the builtins are finding-free"
# each exits 1 on a finding (lint: error severity; bound: an unbounded
# (crashed, client) pair; taint: SG016-SG019; race: SG021-SG025) and 2
# on compile errors (set -e)
$B/bin/sgc.exe lint --builtins idl/*.sgidl > /dev/null
$B/bin/sgc.exe lint --json --builtins idl/*.sgidl > "$tmpdir/lint.json"
for c in bound taint race; do
    $B/bin/sgc.exe "$c" --builtins > /dev/null
    $B/bin/sgc.exe "$c" --json --builtins > "$tmpdir/$c.json"
done

echo "== exit-code gate: every sgc report subcommand exits 2 on a compile error"
# lint --json still reports the compile diagnostics as its sgc-lint
# report on stdout; bound, taint and race print them on stderr only
for c in lint bound taint race; do
    for json in "" --json; do
        if [ "$c$json" = "lint--json" ]; then
            expect_exit 2 $B/bin/sgc.exe lint --json test/fixtures/sg901_parse.sgidl
            mv "$tmpdir/out" "$tmpdir/lint_sg901.json"
        else
            # shellcheck disable=SC2086
            expect_exit 2 empty $B/bin/sgc.exe "$c" $json test/fixtures/sg901_parse.sgidl
        fi
    done
done

echo "== bound cross-validation: no stitched episode exceeds the static bound"
# --verify-bounds recomputes the Wcr bound and exits 1 on any violation;
# run at both -j 1 and -j 2 (speculative chunks must not change spans)
$B/bin/campaign.exe --iface sched -n 120 --seed 7 -j 1 --verify-bounds > "$tmpdir/vb1.out" 2>&1
$B/bin/campaign.exe --iface fs -n 120 --seed 7 -j 2 --verify-bounds > "$tmpdir/vb2.out" 2>&1
for f in vb1 vb2; do
    grep -q "violations=0" "$tmpdir/$f.out" || die "bound cross-validation: $f.out has violations"
done

echo "== bound gate: a million injections, every stitched episode complete and within its bound"
# 166666 faults into each of the six services at -j 2 (885,998
# episodes). The md5 was pinned from -j 1 runs, so it holds the rows and
# bound checks to their bytes across commits and across -j alike.
for i in sched mm fs lock evt timer; do
    $B/bin/campaign.exe --iface "$i" -n 166666 --seed 1 -j 2 --verify-bounds
done > "$tmpdir/million.out"

echo "== exit-code gate: superglue-campaign exits 2 with one line on an unknown --iface"
expect_exit 2 empty "=superglue-campaign: unknown interface bogus (have: sched mm fs lock evt timer)" \
    $B/bin/campaign.exe --iface bogus -n 10

echo "== dst gate: fixed-seed campaign over all six services passes clean, byte-identical at -j 1 and -j 4"
# seeds 1..3000: the crash, divert and walk paths of the invocation loop
# under thousands of generated plans. With no failure nothing is shrunk,
# so both outputs carry the md5 pinned for the same run with --no-shrink.
for j in 1 4; do
    $B/bin/dst.exe run --seed 1 --count 3000 -j "$j" > "$tmpdir/dst_run_j$j.out"
done
tail -n 1 "$tmpdir/dst_run_j1.out" | grep -q "0 failure(s), services=6" ||
    die "dst gate: seeds 1..3000 do not pass clean"

echo "== dst sweep: seeds 1..200000 pass clean"
# about 10 s at -j 2; every generated plan of crashes, flips and storage
# faults over all six services recovers (the last failing seeds, a lost
# divert and a double replay, are regression artifacts in test_dst)
expect_exit 0 $B/bin/dst.exe run --seed 1 --count 200000 --no-shrink -q -j 2
tail -n 1 "$tmpdir/out" | grep -q "^dst: 200000 seed(s), 0 failure(s), services=6," ||
    die "dst sweep: $(tail -n 1 "$tmpdir/out")"

echo "== dst gate: run exits 2 with one line on a non-positive --count"
for count in 0 -1; do
    expect_exit 2 empty one-line $B/bin/dst.exe run --count="$count"
done

echo "== dst gate: cold-start -j 2 and -j 4 campaigns match -j 1, fresh process each"
# every process-wide value a pool task reads must be ready before the
# first task runs on any domain; a first-use race only shows in a fresh
# process, so each run is one. Probabilistic: it backs up that rule,
# it cannot prove it.
for seed in 175 266 329; do
    $B/bin/dst.exe run --seed "$seed" --count 30 -j 1 > "$tmpdir/dst_cold_j1.out"
    for j in 2 4; do
        for _ in 1 2 3 4 5 6 7 8 9 10; do
            $B/bin/dst.exe run --seed "$seed" --count 30 -j "$j" > "$tmpdir/dst_cold.out"
            same_bytes "$tmpdir/dst_cold_j1.out" "$tmpdir/dst_cold.out"
        done
    done
done

echo "== dst gate: a canned failing plan shrinks to a byte-identical repro at -j 1 and -j 2"
# the mutant run exits 1 (failure found) by contract; the same hunt at
# -j 2 must find the same failing seed and artifact
for j in 1 2; do
    expect_exit 1 $B/bin/dst.exe run --mutant mm/drop-terminal/0 --count 5 \
        --no-shrink --out "$tmpdir/dst_fail_j$j.json" -q -j "$j"
    $B/bin/dst.exe shrink --artifact "$tmpdir/dst_fail_j1.json" \
        --out "$tmpdir/dst_min_j$j.json" -j "$j" > /dev/null
done
same_bytes "$tmpdir/dst_fail_j1.json" "$tmpdir/dst_fail_j2.json"
same_bytes "$tmpdir/dst_min_j1.json" "$tmpdir/dst_min_j2.json"
$B/bin/dst.exe replay "$tmpdir/dst_min_j1.json" > /dev/null

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
for art in dst_truncated no_such_artifact dst_bogus_iface dst_bad_knob \
    dst_bogus_restart dst_bogus_crash; do
    expect_exit 2 one-line $B/bin/dst.exe replay "$tmpdir/$art.json"
    expect_exit 2 one-line $B/bin/dst.exe shrink --artifact "$tmpdir/$art.json"
done

echo "== artifact gate: superglue-dst exits 2 when an artifact cannot be written"
# a missing --out-dir is refused before the campaign runs (cmdliner,
# exit 124, nothing on stdout); a failed write after the work is done
# is one error line and exit 2, not an uncaught Sys_error (exit 125)
expect_exit 124 empty $B/bin/dst.exe race --seed 1100 --per-entry 1 \
    --out-dir "$tmpdir/no_such_dir"
expect_exit 2 one-line $B/bin/dst.exe run --mutant mm/drop-terminal/0 --count 5 \
    --no-shrink --out "$tmpdir/no_such_dir/x.json" -q
mkdir -p "$tmpdir/witness_dir/race_fs_fs_tlseek.json"
expect_exit 2 one-line $B/bin/dst.exe race --seed 1100 --per-entry 1 -q \
    --out-dir "$tmpdir/witness_dir"

echo "== output gate: sgtrace dump -o, sgc compile -o, superglue-campaign --trace and superglue-dst replay --trace exit 2 on an unwritable path"
# one error line, nothing on stdout, not an uncaught Sys_error (exit 125)
for cmd in "sgtrace.exe dump --iface lock -o" "sgc.exe compile --builtin lock -o" \
    "campaign.exe --iface lock -n 5 --trace" \
    "dst.exe replay $tmpdir/dst_min_j1.json --trace"; do
    # shellcheck disable=SC2086 # $cmd is a binary and its flags
    expect_exit 2 empty one-line $B/bin/$cmd "$tmpdir/no_such_dir/out"
done

echo "== adversary gate: pinned campaign matches the static verdicts, -j independent"
# every silent verdict gets a witness, no masked/detected edge fails
# silently (exit 1 on any mismatch), and the full report is
# byte-identical across job counts
for j in 1 2; do
    $B/bin/dst.exe adversary --seed 1000 --per-entry 18 -j "$j" > "$tmpdir/adv_j$j.out"
done
same_bytes "$tmpdir/adv_j1.out" "$tmpdir/adv_j2.out"
grep -q "118 entr(ies), 18 witness(es), 0 mismatch(es)" "$tmpdir/adv_j1.out" ||
    die "adversary gate: census moved"

echo "== race gate: pinned recovery-racing campaign matches the verdicts, -j independent"
# every racy verdict is discharged (silent in-walk witness or sustained
# zero-detection acceptance), no isolated/serialized pair goes silent
# (exit 1 on any mismatch), and the report is byte-identical across -j
for j in 1 2; do
    $B/bin/dst.exe race --seed 1100 --per-entry 6 -j "$j" > "$tmpdir/race_j$j.out"
done
same_bytes "$tmpdir/race_j1.out" "$tmpdir/race_j2.out"
grep -q "race: 138 pair(s), 5 racy, 3 witness(es), 0 mismatch(es)" "$tmpdir/race_j1.out" ||
    die "race gate: census moved"

echo "== webbench gate: open-loop report byte-identical at -j 1 and -j 2"
for j in 1 2; do
    $B/bin/webbench.exe open-loop --requests 2000 --seed 42 \
        --fault-period-ms 0,3 --json -j "$j" > "$tmpdir/webbench_j$j.json"
done
same_bytes "$tmpdir/webbench_j1.json" "$tmpdir/webbench_j2.json"

echo "== webbench gate: rejects a zero or NaN rate, zero workers and a non-positive fault period with exit 2"
# open-loop takes 0 as its fault-free period but no negative one; fig7
# takes no period <= 0 (a SWIFI thread that sleeps 0 ns starves the
# clients). One error line each, before any run.
for bad in "open-loop --rate 0 --json" "open-loop --rate nan --json" \
    "open-loop --workers 0 --json" "open-loop --fault-period-ms=-1 --json" \
    "fig7 --mode superglue --fault-period-ms=0" \
    "fig7 --mode superglue --fault-period-ms=-1"; do
    # shellcheck disable=SC2086
    expect_exit 2 empty one-line $B/bin/webbench.exe $bad --requests 200
done

echo "== identity gate: outputs byte-identical to digests pinned at an earlier commit"
# The -j gates compare two runs of one build, so a change that moves
# every run alike passes them; the pin table below holds outputs to
# digests recorded at the commit it names. A change that moves one on
# purpose re-pins it and states old -> new in CHANGES.md.
$B/bin/webbench.exe open-loop --requests 20000 --seed 42 \
    --fault-period-ms 1 --json > "$tmpdir/pin_web.json"
# Table II over all six services, and two --cmon --verify-bounds
# streams: evt grows its global-descriptor registry across thousands of
# reboots (the G0 reseed), sched reaches the --cmon hang path
$B/bin/campaign.exe -n 2000 --seed 5 -j 2 > "$tmpdir/pin_table2.out"
for i in evt sched; do
    $B/bin/campaign.exe --iface "$i" -n 3000 --seed 9 --cmon \
        --verify-bounds --trace "$tmpdir/pin_$i.jsonl" > /dev/null 2>&1
done
# The trace read side over the evt stream: sgtrace check on a copy with
# every 37th line dropped (exit 1), once without its end-of-stream
# reports and once sorted, as those reports follow the checker's key
# order; and sgtrace profile --json read from stdin, so that its source
# is <stdin>, not a path.
awk 'NR % 37 != 0' "$tmpdir/pin_evt.jsonl" > "$tmpdir/pin_evt_damaged.jsonl"
expect_exit 1 $B/bin/sgtrace.exe check "$tmpdir/pin_evt_damaged.jsonl"
grep -v end-of-stream "$tmpdir/out" > "$tmpdir/pin_check_fold.out"
LC_ALL=C sort "$tmpdir/out" > "$tmpdir/pin_check_sorted.out"
# A DST stream: the unshrunk mutant repro, replayed with --trace (its
# bytes pinned, as the evt and sched streams are), passes sgtrace check
# whole, and fails it with every 5th line dropped
$B/bin/dst.exe replay "$tmpdir/dst_fail_j1.json" \
    --trace "$tmpdir/pin_dst_replay.jsonl" > /dev/null
$B/bin/sgtrace.exe check "$tmpdir/pin_dst_replay.jsonl" > /dev/null
awk 'NR % 5 != 0' "$tmpdir/pin_dst_replay.jsonl" > "$tmpdir/pin_dst_damaged.jsonl"
expect_exit 1 $B/bin/sgtrace.exe check "$tmpdir/pin_dst_damaged.jsonl"
mv "$tmpdir/out" "$tmpdir/pin_dst_check.out"
$B/bin/sgtrace.exe profile --json < "$tmpdir/pin_evt.jsonl" > "$tmpdir/pin_profile.json"
# The offline latency fold behind the two summary printers: bench obs,
# and sgtrace summary on the evt stream and on its damaged copy (unknown
# span ends, walk ends that match no open walk); Fig 7 and the
# ablation, which also read the live reboot and per-client walk counters
$B/bench/main.exe obs > "$tmpdir/pin_obs.out"
$B/bin/sgtrace.exe summary "$tmpdir/pin_evt.jsonl" > "$tmpdir/pin_summary.out"
$B/bin/sgtrace.exe summary "$tmpdir/pin_evt_damaged.jsonl" > "$tmpdir/pin_summary_damaged.out"
$B/bench/main.exe fig7 ablation > "$tmpdir/pin_fig7.out"

# digest, file in $tmpdir, commit that recorded the digest, command
while read -r digest file commit what; do
    got=$(md5sum < "$tmpdir/$file" | cut -d' ' -f1)
    [ "$got" = "$digest" ] || die "pin: $what has md5 $got, pinned $digest at $commit"
done <<EOF
181a8b2ad3ccefbf0e19456060d52885 dump_evt.jsonl 3290576 sgtrace dump --iface evt --storm 7
a9d6675d2478e4c2ebe48e34fa696b31 trace_j1.jsonl 9120fd0 superglue-campaign --iface lock -n 40 --seed 3 -j 1 --trace
83e49af4ebd95aa05397785f7bb0100a million.out 0d068ba superglue-campaign --iface (each) -n 166666 --seed 1 -j 2 --verify-bounds
556a15b7701836e76a5ba65c18df0037 dst_run_j1.out 9120fd0 superglue-dst run --seed 1 --count 3000 -j 1
556a15b7701836e76a5ba65c18df0037 dst_run_j4.out 9120fd0 superglue-dst run --seed 1 --count 3000 -j 4
47752629948eb55128780245e83ad607 webbench_j1.json 3214d68 webbench open-loop --requests 2000 --seed 42 --fault-period-ms 0,3 --json -j 1
8fd6bdeab235e9c6ff37e0acf4fdbb8d pin_web.json 3214d68 webbench open-loop --requests 20000 --seed 42 --fault-period-ms 1 --json
920beef364fff7700c85531cae55b4da pin_table2.out d1cb0de superglue-campaign -n 2000 --seed 5 -j 2
fbfb34dd800c6bff803f607a3d3934d7 pin_evt.jsonl d1cb0de superglue-campaign --iface evt -n 3000 --seed 9 --cmon --verify-bounds --trace
549094708697475425afb70c07219b5f pin_sched.jsonl d1cb0de superglue-campaign --iface sched -n 3000 --seed 9 --cmon --verify-bounds --trace
0f4b41dbd1d50347125ad5cb5f1abcb7 pin_check_fold.out f0cf2ec sgtrace check (evt stream, every 37th line dropped), end-of-stream lines removed
e51d57edf430a71a8ce6d4ddba0e2bf0 pin_check_sorted.out f0cf2ec sgtrace check (evt stream, every 37th line dropped), sorted
7d91aeb0188b4cc6bde04bf5f0b4618c pin_dst_replay.jsonl 22daaba superglue-dst replay (the mm/drop-terminal/0 repro) --trace
4c96b1f91db7cdbe118b36615a95b95e pin_dst_check.out cadf657 sgtrace check (replayed DST stream, every 5th line dropped)
6c763833ebb8eac93196a9a8793df525 pin_profile.json f0cf2ec sgtrace profile --json < (evt stream)
63d45243aae7a31ee7056bed9562654b pin_obs.out 3214d68 bench/main.exe obs
314d652841fbff0a7252105383dcf20b pin_summary.out 3214d68 sgtrace summary (evt stream)
4764800f630af2b7cdca8ee97d21c123 pin_summary_damaged.out 3214d68 sgtrace summary (evt stream, every 37th line dropped)
91593811cdc9b614c7d4700e3ae4110a pin_fig7.out 080a2e9 bench/main.exe fig7 ablation
EOF

echo "== report gate: every JSON report and the bound-check rows validate"
# One declared row per report: (file in $tmpdir, schema, envelope
# version or None for text, extra arguments of the schema's check).
python3 - "$tmpdir" <<'EOF'
import json, os, sys, traceback

def sg_profile(r):
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

def sgc_lint(r, error_codes=()):
    assert r["errors"] == len(error_codes)
    if error_codes:  # a compile error: its diagnostics and nothing else
        assert [d["code"] for d in r["diagnostics"]] == list(error_codes)
        return
    assert r["warnings"] == 0
    for d in r["diagnostics"]:
        assert d["code"].startswith("SG") and d["severity"] == "info"
        assert d["file"] and d["line"] >= 1 and d["col"] >= 1

def sgc_bound(r):
    assert len(r["services"]) == 6
    for s in r["services"]:
        assert s["image_kb"] > 0 and s["reboot_ns"] > 0
        assert s["cap"] is not None and s["direct_ns"] is not None
    assert len(r["pairs"]) == 36
    for p in r["pairs"]:
        assert p["kind"] in ("direct", "transitive", "unrelated")
        assert p["bound_ns"] is not None and p["bound_ns"] > 0

def sgc_taint(r):
    assert r["errors"] == 0 and r["diagnostics"] == []
    assert r["edges"] == 23 and r["fields"] == 118
    assert r["masked"] + r["detected"] + r["silent"] == r["fields"]
    assert len(r["entries"]) == r["fields"]
    for e in r["entries"]:
        assert e["verdict"] in ("masked", "detected", "silent")
        assert e["iface"] and e["fn"] and e["field"] and e["reason"]

def sgc_race(r):
    assert r["errors"] == 0 and r["diagnostics"] == []
    assert r["pairs"] == 138 and len(r["entries"]) == r["pairs"]
    assert (r["isolated"], r["serialized"], r["racy"]) == (113, 20, 5)
    assert len(r["walks"]) == 6
    for e in r["entries"]:
        assert e["verdict"] in ("isolated", "serialized", "racy")
        assert e["walker"] and e["iface"] and e["fn"] and e["phase"] and e["reason"]

def sg_webbench(r):
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

def bound_check(lines):
    rows = [dict(kv.split("=") for kv in l.split()[2:])
            for l in lines if l.startswith("bound-check ")]
    assert len(rows) == 6
    for r in rows:
        assert r["violations"] == "0" and r["complete"] == r["episodes"], r
    assert sum(int(r["episodes"]) for r in rows) == 885998

CHECKS = {"sg-profile": sg_profile, "sgc-lint": sgc_lint, "sgc-bound": sgc_bound,
          "sgc-taint": sgc_taint, "sgc-race": sgc_race,
          "sg-webbench": sg_webbench, "bound-check": bound_check}
REPORTS = [
    ("profile.json", "sg-profile", 1),
    ("lint.json", "sgc-lint", 2),
    ("lint_sg901.json", "sgc-lint", 2, ["SG901"]),
    ("bound.json", "sgc-bound", 1),
    ("taint.json", "sgc-taint", 1),
    ("race.json", "sgc-race", 1),
    ("webbench_j1.json", "sg-webbench", 1),
    ("million.out", "bound-check", None),
]
src = open("tools/check.sh").read().splitlines()
start = next(i for i, l in enumerate(src) if l.startswith("python3 - "))
for file, schema, version, *args in REPORTS:
    try:
        with open(os.path.join(sys.argv[1], file)) as f:
            if version is None:
                CHECKS[schema](f.readlines(), *args)
                continue
            r = json.load(f)
        assert (r["version"], r["schema"]) == (version, schema)
        CHECKS[schema](r, *args)
    except Exception as e:
        # the failing line of this validator, as a line of check.sh
        n = start + 1 + [fr.lineno for fr in traceback.extract_tb(e.__traceback__)
                         if fr.filename == "<stdin>"][-1]
        what = f"{type(e).__name__} {e}".rstrip()
        sys.exit(f"check.sh: report {file} ({schema}): {what} at line {n}:"
                 f" {src[n - 1].strip()}")
EOF

echo "== tier-1 gate OK"
