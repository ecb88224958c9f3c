(* Tests for the DST campaign layer (lib/dst): seed determinism,
   mutant detection, shrinker soundness and 1-minimality, double-fault
   episode stitching, and artifact round-trips. *)

module Gen = Sg_dst.Gen
module Plan = Sg_dst.Plan
module Exec = Sg_dst.Exec
module Shrink = Sg_dst.Shrink
module Artifact = Sg_dst.Artifact
module Dst = Sg_dst.Dst
module Rng = Sg_util.Rng
module Episode = Sg_obs.Episode
module Profile = Sg_obs.Profile
module Json = Sg_util.Json
module Taint = Sg_analysis.Taint

let scenario_label (sc : Exec.scenario) =
  Artifact.to_string
    { Artifact.af_sut = "superglue"; af_verdict = "pass"; af_scenario = sc }

(* ------------------------------------------------------------------ *)
(* Seed determinism                                                    *)

let test_scenario_deterministic () =
  List.iter
    (fun seed ->
      let a = Dst.scenario_of_seed seed and b = Dst.scenario_of_seed seed in
      Alcotest.(check string) "same seed, same scenario" (scenario_label a)
        (scenario_label b))
    [ 1; 2; 5; 17; 100; 12345 ]

let test_verdict_deterministic () =
  let sc = Dst.scenario_of_seed 3 in
  let a = Exec.run sc and b = Exec.run sc in
  Alcotest.(check string) "same verdict class"
    (Exec.verdict_class a.Exec.oc_verdict)
    (Exec.verdict_class b.Exec.oc_verdict);
  Alcotest.(check int) "same event count" a.Exec.oc_events b.Exec.oc_events

let prop_seed_determinism =
  QCheck.Test.make ~count:25 ~name:"dst_seed_determinism"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let a = Dst.scenario_of_seed seed and b = Dst.scenario_of_seed seed in
      scenario_label a = scenario_label b)

(* Running the same generated scenario twice must agree on everything
   the oracle looks at, not just the verdict class. *)
let prop_run_determinism =
  QCheck.Test.make ~count:8 ~name:"dst_run_determinism"
    QCheck.(int_range 1 400)
    (fun seed ->
      let sc = Dst.scenario_of_seed seed in
      let a = Exec.run sc and b = Exec.run sc in
      Exec.verdict_class a.Exec.oc_verdict
      = Exec.verdict_class b.Exec.oc_verdict
      && a.Exec.oc_events = b.Exec.oc_events
      && a.Exec.oc_storage_faults = b.Exec.oc_storage_faults)

(* The plan stream is split from the master before the workload stream
   draws, so the op sequence for a seed must not depend on the plan
   configuration. *)
let test_streams_independent () =
  let profile = Dst.default_profile in
  let quiet =
    {
      profile with
      Dst.pf_plan =
        {
          profile.Dst.pf_plan with
          Plan.pc_flip = 0;
          pc_storage = 0;
          pc_crash = 0;
          pc_double = 0;
        };
    }
  in
  List.iter
    (fun seed ->
      let a = Dst.scenario_of_seed ~profile seed in
      let b = Dst.scenario_of_seed ~profile:quiet seed in
      Alcotest.(check bool) "plan config does not perturb ops" true
        (a.Exec.sc_workload = b.Exec.sc_workload);
      Alcotest.(check (list string)) "quiet plan is empty" []
        (List.map Plan.fault_label b.Exec.sc_plan))
    [ 1; 7; 23 ]

(* ------------------------------------------------------------------ *)
(* Generator output shape                                              *)

let test_gen_respects_mix () =
  let rng = Rng.create 9 in
  let mix =
    {
      Gen.default_mix with
      Gen.mx_restart = 0;
      mx_weights =
        { Gen.default_mix.Gen.mx_weights with Sg_components.Sysbuild.fs = 0 };
    }
  in
  let ops = Gen.generate ~mix rng ~len:200 in
  Alcotest.(check int) "generated length" 200 (List.length ops);
  List.iter
    (fun op ->
      match op with
      | Gen.Restart _ -> Alcotest.fail "restart generated at weight 0"
      | Gen.Fs_open _ | Gen.Fs_write _ | Gen.Fs_read _ | Gen.Fs_close _ ->
          Alcotest.fail "fs op generated at weight 0"
      | _ -> ())
    ops

let test_gen_json_roundtrip () =
  let rng = Rng.create 31 in
  let ops = Gen.generate ~mix:Gen.default_mix rng ~len:50 in
  List.iter
    (fun op ->
      let op' = Gen.op_of_json (Gen.op_to_json op) in
      Alcotest.(check string) "op json roundtrip" (Gen.op_label op)
        (Gen.op_label op');
      Alcotest.(check bool) "op structural roundtrip" true (op = op'))
    ops

let test_plan_json_roundtrip () =
  let rng = Rng.create 77 in
  let plan =
    Plan.generate ~config:Plan.default_config
      ~services:[ "sched"; "fs"; "evt" ] rng
  in
  (* Perturb is never drawn by generate, so round-trip it explicitly *)
  let plan =
    Plan.Perturb
      {
        pb_iface = "fs";
        pb_fn = "twrite";
        pb_field = "@drop";
        pb_nth = 2;
        pb_every = false;
        pb_walk = false;
      }
    :: Plan.Perturb
         {
           pb_iface = "fs";
           pb_fn = "twrite";
           pb_field = "ret";
           pb_nth = 3;
           pb_every = true;
           pb_walk = true;
         }
    :: plan
  in
  List.iter
    (fun f ->
      let f' = Plan.fault_of_json (Plan.fault_to_json f) in
      Alcotest.(check bool) "fault json roundtrip" true (f = f'))
    plan

(* ------------------------------------------------------------------ *)
(* The edge adversary                                                  *)

(* the canonical silent edge: fs.twrite's plain data payload, witnessed
   at the seed the pinned check.sh campaign finds it at *)
let silent_scenario () =
  Dst.adversary_scenario ~iface:"fs" ~fn:"twrite" ~field:"data" ~nth:2 8057

let test_adversary_deterministic () =
  let sc = silent_scenario () in
  let o1 = Exec.run sc and o2 = Exec.run sc in
  Alcotest.(check string) "verdict stable"
    (Exec.verdict_class o1.Exec.oc_verdict)
    (Exec.verdict_class o2.Exec.oc_verdict);
  (match (o1.Exec.oc_adversary, o2.Exec.oc_adversary) with
  | Some a1, Some a2 ->
      Alcotest.(check bool) "fired stable" a1.Exec.ao_fired a2.Exec.ao_fired;
      Alcotest.(check int) "errors stable" a1.Exec.ao_errors a2.Exec.ao_errors
  | _ -> Alcotest.fail "adversary observation missing");
  Alcotest.(check string) "same obs class"
    (Dst.obs_label (Dst.classify_outcome o1))
    (Dst.obs_label (Dst.classify_outcome o2))

let test_adversary_silent_witness () =
  (* the corrupted write crosses unobserved: no error reply anywhere,
     only the end-to-end read-back oracle fails *)
  let o = Exec.run (silent_scenario ()) in
  Alcotest.(check string) "silent observation" "silent"
    (Dst.obs_label (Dst.classify_outcome o))

let test_adversary_masked () =
  (* sched_create.prio is captured replay metadata: recovery regenerates
     it, so corrupting it never surfaces. Scan a few seeds — whether the
     edge is exercised depends on the workload — and require every fired
     run to be masked. *)
  let fired = ref 0 in
  for seed = 500 to 511 do
    let sc =
      Dst.adversary_scenario ~iface:"sched" ~fn:"sched_create" ~field:"prio"
        ~nth:1 seed
    in
    match Dst.classify_outcome (Exec.run sc) with
    | Dst.Ob_unfired -> ()
    | Dst.Ob_masked -> incr fired
    | o ->
        Alcotest.failf "seed %d: masked edge observed %s" seed
          (Dst.obs_label o)
  done;
  if !fired = 0 then Alcotest.fail "edge never exercised"

let test_adversary_unfired () =
  (* an anchor far beyond any invocation count never fires, and an
     unfired perturbation must leave the run clean *)
  let sc =
    Dst.adversary_scenario ~iface:"lock" ~fn:"lock_alloc" ~field:"@drop"
      ~nth:100000 42
  in
  let o = Exec.run sc in
  Alcotest.(check string) "unfired" "unfired"
    (Dst.obs_label (Dst.classify_outcome o));
  Alcotest.(check string) "run unaffected" "pass"
    (Exec.verdict_class o.Exec.oc_verdict)

(* ------------------------------------------------------------------ *)
(* The sustained, recovery-racing adversary                            *)

(* A walk-time perturbation must be observable: the recovery walk's
   replay path routes through the same client hook as live traffic, so
   an [In_walk] adversary armed on a replayed edge fires during the
   walk and its corruption reaches the end-to-end oracle. Pinned to the
   fs.tsplit[name] witness seed of the check.sh race campaign; the
   campaign anchors the walker's crash at dispatch (k mod 3) + 1, so
   scan all three anchors and require the silent witness among them. *)
let test_walk_perturbation_observable () =
  let witnessed = ref false in
  for crash_nth = 1 to 3 do
    let sc =
      Dst.race_scenario ~walker:"fs" ~iface:"fs" ~fn:"tsplit" ~field:"name"
        ~crash_nth 3691
    in
    let o = Exec.run sc in
    match (o.Exec.oc_adversary, Dst.classify_outcome o) with
    | Some { Exec.ao_fired = true; _ }, Dst.Ob_silent -> witnessed := true
    | _ -> ()
  done;
  if not !witnessed then
    Alcotest.fail "walk-time replay corruption never surfaced silently"

(* Phase discipline: the same sustained in-walk perturbation with the
   walker's crash removed from the plan has no recovery walk to race —
   it must never fire and the run must pass untouched. *)
let test_walk_adversary_needs_walk () =
  let sc =
    Dst.race_scenario ~walker:"fs" ~iface:"fs" ~fn:"tsplit" ~field:"name"
      ~crash_nth:1 3691
  in
  let sc =
    {
      sc with
      Exec.sc_plan =
        List.filter
          (function Plan.Crash _ -> false | _ -> true)
          sc.Exec.sc_plan;
    }
  in
  let o = Exec.run sc in
  Alcotest.(check string) "no walk, no fire" "unfired"
    (Dst.obs_label (Dst.classify_outcome o));
  Alcotest.(check string) "run unaffected" "pass"
    (Exec.verdict_class o.Exec.oc_verdict)

(* The sustained confusion matrix: for one busy edge per service, arm
   the *sustained* live adversary (every 2nd invocation, not one-shot)
   over every field the taint table enumerates for that edge — operand
   corruption plus the @drop/@dup/@reorder delivery actions — at pinned
   seeds. Zero unexplained failures: a silent observation is legitimate
   only on a field the table itself claims Silent; any silent outcome
   on a Masked/Detected field is a hole in the verdict table. *)
let test_sustained_confusion_matrix () =
  let report =
    Taint.analyze
      (List.map Superglue.Compiler.builtin Superglue.Compiler.builtin_names)
  in
  let edges =
    [
      ("sched", "sched_create");
      ("mm", "mman_get_page");
      ("fs", "twrite");
      ("lock", "lock_free");
      ("evt", "evt_trigger");
      ("timer", "timer_create");
    ]
  in
  let fired = ref 0 in
  List.iteri
    (fun i (iface, fn) ->
      let entries =
        List.filter
          (fun e -> e.Taint.e_iface = iface && e.Taint.e_fn = fn)
          report.Taint.t_entries
      in
      if entries = [] then Alcotest.failf "no taint entries for %s.%s" iface fn;
      List.iteri
        (fun j e ->
          let seed = 9000 + (i * 97) + (j * 7) in
          let sc =
            Dst.adversary_scenario ~iface ~fn ~field:e.Taint.e_field ~nth:2 seed
          in
          let sc =
            {
              sc with
              Exec.sc_plan =
                [
                  Plan.Perturb
                    {
                      pb_iface = iface;
                      pb_fn = fn;
                      pb_field = e.Taint.e_field;
                      pb_nth = 2;
                      pb_every = true;
                      pb_walk = false;
                    };
                ];
            }
          in
          let o = Exec.run sc in
          (match o.Exec.oc_adversary with
          | Some { Exec.ao_fired = true; _ } -> incr fired
          | _ -> ());
          match Dst.classify_outcome o with
          | Dst.Ob_silent when e.Taint.e_verdict <> Taint.Silent ->
              Alcotest.failf
                "unexplained failure: sustained %s.%s[%s] went silent but the \
                 table claims %s"
                iface fn e.Taint.e_field
                (Taint.verdict_to_string e.Taint.e_verdict)
          | _ -> ())
        entries)
    edges;
  if !fired = 0 then Alcotest.fail "sustained adversary never fired"

(* The table grader is bit-reproducible across worker counts, row for
   row — same structural rows, same mismatch total — for both the race
   and the adversary table. *)
let test_race_jobs_identical () =
  let check name seed table =
    let run jobs = Dst.grade ~jobs ~seed ~per_entry:1 table in
    let r1, m1 = run 1 in
    let r2, m2 = run 2 in
    Alcotest.(check int) (name ^ ": same mismatch count") m1 m2;
    Alcotest.(check int) (name ^ ": same row count") (List.length r1)
      (List.length r2);
    if r1 <> r2 then Alcotest.failf "%s rows differ across --jobs" name
  in
  check "race" 1100 (Dst.race_table ());
  check "adversary" 1000 (Dst.adversary_table ())

(* ------------------------------------------------------------------ *)
(* Pristine campaign: fixed seed window is clean                       *)

let test_pristine_clean () =
  match Dst.run_seeds ~seed:1 ~count:10 () with
  | None -> ()
  | Some r ->
      Alcotest.failf "pristine seed %d failed: %s" r.Dst.rr_seed
        (match r.Dst.rr_result with
        | Error m -> m
        | Ok o ->
            String.concat " | " (Exec.verdict_detail o.Exec.oc_verdict))

(* One crash-only repro per class of pristine failure the 200000-seed
   sweep once found, kept as artifacts so that they outlive generator
   changes. Each recorded a fatal verdict; each replays clean now.
   - lock, evt, deadlock: a second reboot overwrote a pending divert
     with an inner component's, leaving the thread in the outer one's
     dead incarnation;
   - mm: a D1 parent's walk absorbed a reboot, so the child's creation
     was replayed twice (mman_alias_page is not idempotent). *)
let pristine_repros =
  [
    ( "lock contender",
      {|{"version":1,"schema":"superglue-dst","sut":"superglue","seed":61021,"verdict":"fatal","workload":{"kind":"ops","ops":[{"op":"lock_cycle","cycles":2,"holds":1},{"op":"evt_chain","triggers":2},{"op":"timer_tick","periods":3,"period_ns":50000},{"op":"timer_tick","periods":1,"period_ns":400000},{"op":"lock_cycle","cycles":3,"holds":1},{"op":"mm_cycle","fanout":2},{"op":"lock_cycle","cycles":3,"holds":1},{"op":"sched_pingpong","rounds":1},{"op":"mm_cycle","fanout":2},{"op":"desc_burst","count":3},{"op":"sched_pingpong","rounds":3},{"op":"sched_pingpong","rounds":3}]},"plan":[{"fault":"crash","service":"lock","nth":4},{"fault":"crash","service":"sched","nth":3}]}|}
    );
    ( "evt waiter",
      {|{"version":1,"schema":"superglue-dst","sut":"superglue","seed":38598,"verdict":"fatal","workload":{"kind":"ops","ops":[{"op":"evt_chain","triggers":2},{"op":"fs_write","path":0,"byte":19},{"op":"evt_chain","triggers":3},{"op":"fs_read","path":0},{"op":"desc_burst","count":3},{"op":"evt_chain","triggers":1},{"op":"fs_write","path":0,"byte":0},{"op":"lock_cycle","cycles":1,"holds":1},{"op":"sched_pingpong","rounds":3},{"op":"fs_read","path":1},{"op":"lock_cycle","cycles":1,"holds":0},{"op":"fs_open","path":1}]},"plan":[{"fault":"crash","service":"evt","nth":12},{"fault":"crash","service":"sched","nth":9}]}|}
    );
    ( "deadlock",
      {|{"version":1,"schema":"superglue-dst","sut":"superglue","seed":71581,"verdict":"fatal","workload":{"kind":"ops","ops":[{"op":"sched_pingpong","rounds":3},{"op":"fs_read","path":0},{"op":"fs_open","path":1},{"op":"lock_cycle","cycles":3,"holds":1},{"op":"lock_cycle","cycles":3,"holds":2},{"op":"desc_burst","count":4},{"op":"evt_chain","triggers":1},{"op":"fs_write","path":1,"byte":12},{"op":"sched_pingpong","rounds":3},{"op":"sched_pingpong","rounds":1},{"op":"timer_tick","periods":1,"period_ns":50000},{"op":"fs_read","path":1}]},"plan":[{"fault":"crash","service":"lock","nth":10},{"fault":"crash","service":"sched","nth":19}]}|}
    );
    ( "mm alias replay",
      {|{"version":1,"schema":"superglue-dst","sut":"superglue","seed":31430,"verdict":"fatal","workload":{"kind":"classic","iface":"mm","iters":4,"knob":1},"plan":[{"fault":"crash","service":"mm","nth":8},{"fault":"double","service":"mm","nth":6,"gap":3}]}|}
    );
  ]

let test_pristine_repros () =
  List.iter
    (fun (what, s) ->
      match Dst.replay (Artifact.of_string s) with
      | Error e -> Alcotest.failf "%s: replay error: %s" what e
      | Ok (o, _) ->
          Alcotest.(check string) (what ^ " replays clean") "pass"
            (Exec.verdict_class o.Exec.oc_verdict))
    pristine_repros

(* ------------------------------------------------------------------ *)
(* Mutant detection campaign + shrinker soundness + 1-minimality       *)

(* Runtime-detectable builtin mutants with the first failing seed of
   their focus-profile campaign (seeds 1..60), from the detectability
   scan. Compile-error mutants (every <iface>/drop-retval/0) are
   trivially detected before a scenario runs and are checked
   separately. *)
let detected_mutants =
  [
    ("sched/drop-transition/0", 42, "fatal");
    ("sched/drop-transition/1", 3, "fatal");
    ("sched/swap-block-kind/0", 1, "fatal");
    ("sched/untrack-field/0", 1, "fatal");
    ("mm/drop-terminal/0", 1, "postcond");
    ("mm/untrack-field/0", 1, "postcond");
    ("fs/untrack-field/0", 3, "fatal");
    ("lock/drop-transition/0", 6, "postcond");
    ("lock/swap-hold-kind/0", 6, "postcond");
    ("evt/untrack-field/0", 1, "fatal");
    ("evt/untrack-field/1", 1, "fatal");
    ("evt/creation-on-terminal/0", 1, "fatal");
    ("timer/untrack-field/0", 1, "fatal");
  ]

let mutant_of_id id =
  match Dst.find_mutant id with
  | Some m -> m
  | None -> Alcotest.failf "unknown builtin mutant %s" id

let test_mutants_detected () =
  List.iter
    (fun (id, seed, cls) ->
      let m = mutant_of_id id in
      let sut = Exec.Mutant m in
      let profile = Dst.focus_profile m.Sg_analysis.Mutate.m_iface in
      let r = Dst.run_seed ~sut ~profile seed in
      if not (Dst.report_failed r) then
        Alcotest.failf "%s: seed %d no longer fails" id seed;
      match r.Dst.rr_result with
      | Error m -> Alcotest.failf "%s: unexpected compile error: %s" id m
      | Ok o ->
          Alcotest.(check string)
            (id ^ " verdict class") cls
            (Exec.verdict_class o.Exec.oc_verdict))
    detected_mutants

let test_compile_error_mutants_detected () =
  List.iter
    (fun iface ->
      let id = iface ^ "/drop-retval/0" in
      let r = Dst.run_seed ~sut:(Exec.Mutant (mutant_of_id id)) 1 in
      (match r.Dst.rr_result with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: expected a compile error" id);
      Alcotest.(check bool) (id ^ " detected") true (Dst.report_failed r))
    [ "mm"; "fs"; "lock"; "evt"; "timer" ]

(* For each detected mutant: shrink the failing scenario, then check
   (a) soundness: the shrunk scenario still fails with the same class,
   (b) 1-minimality: no single-removal candidate of the shrunk scenario
       still fails with that class,
   (c) replay: the artifact round-trips byte-identically and replaying
       it reproduces the verdict class. *)
let test_shrunk_minimal_and_replayable () =
  List.iter
    (fun (id, seed, _cls) ->
      let m = mutant_of_id id in
      let sut = Exec.Mutant m in
      let profile = Dst.focus_profile m.Sg_analysis.Mutate.m_iface in
      let sc = Dst.scenario_of_seed ~profile seed in
      let art, _stats = Dst.shrink_to_artifact ~sut sc in
      let shrunk = art.Artifact.af_scenario in
      let cls = art.Artifact.af_verdict in
      if not (Shrink.fails ~sut ~cls shrunk) then
        Alcotest.failf "%s: shrunk scenario no longer fails (%s)" id cls;
      List.iteri
        (fun i cand ->
          if Shrink.fails ~sut ~cls cand then
            Alcotest.failf "%s: not 1-minimal (candidate %d still %s)" id i
              cls)
        (Shrink.candidates shrunk);
      let s = Artifact.to_string art in
      Alcotest.(check string)
        (id ^ " artifact byte roundtrip") s
        (Artifact.to_string (Artifact.of_string s));
      match Dst.replay art with
      | Error e -> Alcotest.failf "%s: replay error: %s" id e
      | Ok (_, matches) ->
          Alcotest.(check bool) (id ^ " replay matches") true matches)
    detected_mutants

(* ------------------------------------------------------------------ *)
(* Shrink determinism across parallelism levels                        *)

let test_shrink_jobs_identical () =
  let id, seed = ("mm/drop-terminal/0", 1) in
  let m = mutant_of_id id in
  let sut = Exec.Mutant m in
  let profile = Dst.focus_profile m.Sg_analysis.Mutate.m_iface in
  let sc = Dst.scenario_of_seed ~profile seed in
  let art1, _ = Dst.shrink_to_artifact ~jobs:1 ~sut sc in
  let art2, _ = Dst.shrink_to_artifact ~jobs:2 ~sut sc in
  Alcotest.(check string) "identical artifact at -j 1 and -j 2"
    (Artifact.to_string art1) (Artifact.to_string art2)

(* The seed-range campaign driver must deliver the same reports, in the
   same order, and find the same first failing seed at every jobs —
   speculative seeds past the failure are run but never reported. *)
let test_run_seeds_jobs_identical () =
  let observe ~sut ~profile ~jobs =
    let log = ref [] in
    let fail =
      Dst.run_seeds ~sut ~profile ~jobs
        ~on_report:(fun r ->
          let v =
            match r.Dst.rr_result with
            | Error _ -> "compile-error"
            | Ok o -> Exec.verdict_class o.Exec.oc_verdict
          in
          log := (r.Dst.rr_seed, v) :: !log)
        ~seed:1 ~count:12 ()
    in
    (List.rev !log, Option.map (fun r -> r.Dst.rr_seed) fail)
  in
  (* pristine: no failure, the full range reported *)
  let log1, f1 = observe ~sut:Exec.Pristine ~profile:Dst.default_profile ~jobs:1 in
  let log4, f4 = observe ~sut:Exec.Pristine ~profile:Dst.default_profile ~jobs:4 in
  Alcotest.(check (option int)) "pristine: no failing seed" f1 f4;
  Alcotest.(check int) "pristine: full range reported" 12 (List.length log4);
  Alcotest.(check bool) "pristine: identical report logs" true (log1 = log4);
  (* a mutant hunt stops at the same seed with the same truncated log *)
  let m = mutant_of_id "mm/drop-terminal/0" in
  let sut = Exec.Mutant m in
  let profile = Dst.focus_profile m.Sg_analysis.Mutate.m_iface in
  let mlog1, mf1 = observe ~sut ~profile ~jobs:1 in
  let mlog4, mf4 = observe ~sut ~profile ~jobs:4 in
  Alcotest.(check bool) "mutant: a failure was found" true (mf1 <> None);
  Alcotest.(check (option int)) "mutant: same failing seed" mf1 mf4;
  Alcotest.(check bool) "mutant: identical report logs" true (mlog1 = mlog4)

(* ------------------------------------------------------------------ *)
(* Double-fault episode stitching                                      *)

(* A plan whose Double fault lands the second crash mid-recovery: the
   stitcher must attribute the nested episode without losing time
   (phases sum exactly to span) and without tripping the static bound
   oracle. Scenario: the classic evt workload under a Double — the
   same shape that exposed the stale-epoch walk bug in Cstub. *)
let double_fault_scenario =
  {
    Exec.sc_seed = 24;
    sc_workload = Exec.Classic { iface = "evt"; iters = 3; knob = 2 };
    sc_plan =
      [
        Plan.Double { db_service = "evt"; db_nth = 5; db_gap = 2 };
        Plan.Crash { cr_service = "evt"; cr_nth = 14 };
      ];
  }

let test_double_fault_run () =
  let o = Exec.run double_fault_scenario in
  Alcotest.(check string) "tolerated double fault" "pass"
    (Exec.verdict_class o.Exec.oc_verdict);
  let crashes =
    List.length (List.filter (fun (e : Episode.t) -> e.Episode.ep_seq >= 0)
                   o.Exec.oc_episodes)
  in
  if crashes < 3 then
    Alcotest.failf "expected >= 3 stitched episodes, got %d" crashes

let test_double_fault_phases_sum () =
  let o = Exec.run double_fault_scenario in
  List.iter
    (fun (ep : Episode.t) ->
      let ph = Profile.phases ep in
      Alcotest.(check int)
        (Printf.sprintf "episode @%d phases sum to span" ep.Episode.ep_seq)
        (Episode.span_ns ep) (Profile.phases_total ph))
    o.Exec.oc_episodes

let test_double_fault_no_false_over_bound () =
  let o = Exec.run double_fault_scenario in
  (* judge with a per-component bound map the way the oracle does: a
     nested episode must not be mis-attributed into exceeding the
     static bound *)
  let bound_of _cid = Some max_int in
  Alcotest.(check int) "no over-bound episodes" 0
    (List.length (Episode.over_bound_by ~bound_of o.Exec.oc_episodes));
  (* complete episodes must exist for the bound check to be meaningful *)
  let complete =
    List.filter (fun (e : Episode.t) -> e.Episode.ep_complete)
      o.Exec.oc_episodes
  in
  if complete = [] then Alcotest.fail "no complete episode stitched"

(* ------------------------------------------------------------------ *)
(* Artifact format                                                     *)

let test_artifact_fields () =
  let sc = Dst.scenario_of_seed 5 in
  let art =
    { Artifact.af_sut = "superglue"; af_verdict = "check"; af_scenario = sc }
  in
  let j = Artifact.to_json art in
  Alcotest.(check string) "schema" "superglue-dst"
    (match Json.member "schema" j with Some (Json.Str s) -> s | _ -> "");
  Alcotest.(check bool) "version present" true
    (Json.member "version" j <> None);
  (* field order is part of the byte-identity contract *)
  let s = Artifact.to_string art in
  let idx sub =
    match String.index_opt s '{' with
    | None -> -1
    | Some _ ->
        let rec find i =
          if i + String.length sub > String.length s then -1
          else if String.sub s i (String.length sub) = sub then i
          else find (i + 1)
        in
        find 0
  in
  let positions =
    List.map idx
      [ "\"version\""; "\"schema\""; "\"sut\""; "\"seed\""; "\"verdict\"";
        "\"workload\""; "\"plan\"" ]
  in
  Alcotest.(check bool) "all fields present" true
    (List.for_all (fun p -> p >= 0) positions);
  Alcotest.(check bool) "fixed field order" true
    (positions = List.sort compare positions);
  (* a name or shape no run accepts is refused when the artifact is
     parsed, not when it runs *)
  let artifact ~workload ~plan =
    Printf.sprintf
      {|{"version":1,"schema":"superglue-dst","sut":"superglue","seed":1,"verdict":"postcond","workload":%s,"plan":[%s]}|}
      workload plan
  in
  let ops = {|{"kind":"ops","ops":[{"op":"mm_cycle","fanout":1}]}|} in
  List.iter
    (fun (what, s) ->
      match Artifact.of_string s with
      | _ -> Alcotest.failf "%s: parsed" what
      | exception Json.Parse_error _ -> ())
    [
      ( "classic iface bogus",
        artifact ~plan:""
          ~workload:{|{"kind":"classic","iface":"bogus","iters":2,"knob":1}|} );
      ( "classic lock knob -5",
        artifact ~plan:""
          ~workload:{|{"kind":"classic","iface":"lock","iters":2,"knob":-5}|} );
      ( "classic iters 0",
        artifact ~plan:""
          ~workload:{|{"kind":"classic","iface":"mm","iters":0,"knob":1}|} );
      ( "restart of service bogus",
        artifact ~plan:""
          ~workload:{|{"kind":"ops","ops":[{"op":"restart","service":"bogus"}]}|} );
      ( "crash on service bogus",
        artifact ~workload:ops
          ~plan:{|{"fault":"crash","service":"bogus","nth":1}|} );
    ];
  (* the same artifacts with known names parse *)
  List.iter
    (fun s -> ignore (Artifact.of_string s))
    [
      artifact ~plan:""
        ~workload:{|{"kind":"classic","iface":"lock","iters":2,"knob":1}|};
      artifact ~plan:""
        ~workload:{|{"kind":"ops","ops":[{"op":"restart","service":"mm"}]}|};
      artifact ~workload:ops ~plan:{|{"fault":"crash","service":"mm","nth":1}|};
    ]

let test_artifact_save_load () =
  let sc = Dst.scenario_of_seed 8 in
  let art =
    { Artifact.af_sut = "mutant:mm/drop-terminal/0";
      af_verdict = "postcond";
      af_scenario = sc }
  in
  let path = Filename.temp_file "sg_dst_art" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Artifact.save path art;
      let art' = Artifact.load path in
      Alcotest.(check string) "save/load byte-stable"
        (Artifact.to_string art) (Artifact.to_string art'))

(* An artifact that cannot be written is an I/O error, reported after
   the work is done as one stderr line and exit 2 — not an uncaught
   Sys_error (exit 125). Drives the built superglue-dst through the
   three writers: run --out, shrink --out and the table campaigns'
   --out-dir witness loop; a missing --out-dir is refused (exit 124)
   before the campaign runs. *)
let test_unwritable_artifact () =
  let dir = Filename.temp_dir "sg_dst_out" "" in
  Fun.protect ~finally:(fun () ->
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
  @@ fun () ->
  let path name = Filename.concat dir name in
  let missing = path "missing" in
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/dst.exe"
  in
  let dst args =
    let rc =
      Sys.command
        (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe) args
           (Filename.quote (path "stdout"))
           (Filename.quote (path "stderr")))
    in
    let lines file =
      In_channel.with_open_text (path file) In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (( <> ) "")
    in
    (rc, lines "stdout", lines "stderr")
  in
  let check_exit_2 what args =
    let rc, _, err = dst args in
    Alcotest.(check int) (what ^ ": exit 2") 2 rc;
    match err with
    | [ line ] ->
        Alcotest.(check bool)
          (what ^ ": names the artifact write") true
          (String.starts_with ~prefix:"superglue-dst: cannot write artifact"
             line)
    | _ -> Alcotest.failf "%s: expected one stderr line, got %d" what
             (List.length err)
  in
  let mutant = "run --mutant mm/drop-terminal/0 --count 5 --no-shrink -q" in
  let fail = Filename.quote (path "fail.json") in
  let rc, _, _ = dst (Printf.sprintf "%s --out %s" mutant fail) in
  Alcotest.(check int) "mutant run finds its failure" 1 rc;
  let in_missing name = Filename.quote (Filename.concat missing name) in
  check_exit_2 "run --out"
    (Printf.sprintf "%s --out %s" mutant (in_missing "x.json"));
  check_exit_2 "shrink --out"
    (Printf.sprintf "shrink --artifact %s --out %s" fail (in_missing "y.json"));
  (* a directory where the first witness artifact goes *)
  Sys.mkdir (path "race_fs_fs_tlseek.json") 0o755;
  check_exit_2 "race --out-dir"
    (Printf.sprintf "race --seed 1100 --per-entry 1 -q --out-dir %s"
       (Filename.quote dir));
  let rc, out, _ =
    dst
      (Printf.sprintf "race --seed 1100 --per-entry 1 --out-dir %s"
         (Filename.quote missing))
  in
  Alcotest.(check int) "missing --out-dir refused" 124 rc;
  Alcotest.(check int) "before the campaign runs" 0 (List.length out)

(* an artifact written before reports shared the version-first envelope
   still loads *)
let test_artifact_schema_first () =
  let art =
    { Artifact.af_sut = "superglue"; af_verdict = "check"; af_scenario = Dst.scenario_of_seed 5 }
  in
  let fields =
    match Artifact.to_json art with Json.Obj kvs -> kvs | _ -> Alcotest.fail "not an object"
  in
  let schema_first =
    Json.Obj (("schema", List.assoc "schema" fields) :: List.remove_assoc "schema" fields)
  in
  Alcotest.(check string) "loads unchanged" (Artifact.to_string art)
    (Artifact.to_string (Artifact.of_string (Json.to_string schema_first)))

(* a truncated or byte-flipped artifact parses to some value or raises
   Parse_error; nothing else escapes *)
let damaged_artifact =
  QCheck.make
    ~print:(fun (_, s) -> s)
    QCheck.Gen.(
      int_range 1 500 >>= fun seed ->
      let s =
        Artifact.to_string
          { Artifact.af_sut = "superglue"; af_verdict = "postcond";
            af_scenario = Dst.scenario_of_seed seed }
      in
      let n = String.length s in
      int_bound (n - 1) >>= fun at ->
      oneof
        [
          return (String.sub s 0 at);
          map
            (fun c -> String.mapi (fun i x -> if i = at then c else x) s)
            (oneof [ char; oneofl [ '"'; '{'; '}'; '['; ']'; ','; ':'; '-'; '.'; 'e'; '\\' ] ]);
        ]
      >|= fun damaged -> (seed, damaged))

let total name f =
  QCheck.Test.make ~count:400 ~name damaged_artifact
    (fun (_, s) ->
      match f s with _ -> true | exception Json.Parse_error _ -> true)

let prop_parse_total = total "Json.parse is total on damaged artifacts" Json.parse

let prop_artifact_total =
  total "Artifact.of_string is total on damaged artifacts" Artifact.of_string

(* a damaged artifact that still parses replays to a verdict or an
   error; nothing escapes. Half the seeds are classic workloads (every
   fifth seed), so flips land on their iface and knob too. *)
let damaged_replayable =
  QCheck.make
    ~print:(fun s -> s)
    QCheck.Gen.(
      oneof [ int_range 1 500; map (fun k -> 5 * k) (int_range 1 100) ]
      >>= fun seed ->
      let s =
        Artifact.to_string
          { Artifact.af_sut = "superglue"; af_verdict = "postcond";
            af_scenario = Dst.scenario_of_seed seed }
      in
      int_bound (String.length s - 1) >>= fun at ->
      map
        (fun c -> String.mapi (fun i x -> if i = at then c else x) s)
        (oneof [ char; numeral; oneofl [ '-'; 'a'; 'z' ] ]))

let prop_replay_total =
  QCheck.Test.make ~count:400 ~name:"Dst.replay is total on damaged artifacts"
    damaged_replayable (fun s ->
      match Artifact.of_string s with
      | exception Json.Parse_error _ -> true
      | a -> ( match Dst.replay a with Ok _ | Error _ -> true))

(* ------------------------------------------------------------------ *)
(* The judged stream                                                   *)

(* [Exec.run] keeps one event list, its sink's, and judges it online;
   the list it returns is the stream an offline run kept, event for
   event, pinned as its JSON-lines rendering over seeds 1..200. *)
let test_stream_pinned () =
  let b = Buffer.create (1 lsl 20) in
  let events = ref 0 in
  for seed = 1 to 200 do
    match (Dst.run_seed seed).Dst.rr_result with
    | Ok o ->
        Alcotest.(check int) "oc_events counts oc_stream"
          (List.length o.Exec.oc_stream) o.Exec.oc_events;
        events := !events + o.Exec.oc_events;
        List.iter
          (fun e ->
            Sg_obs.Jsonl.add_event b e;
            Buffer.add_char b '\n')
          o.Exec.oc_stream
    | Error msg -> Alcotest.failf "seed %d: %s" seed msg
  done;
  Alcotest.(check int) "events over seeds 1..200" 30646 !events;
  Alcotest.(check string) "md5 of the JSON-lines dump"
    "62eab576b69fa95218e1eb19ae7b4af2"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ------------------------------------------------------------------ *)
(* Allocation budget                                                   *)

(* Minor words per scenario over a fixed seed range, each judged by the
   full oracle. Minor words do not depend on host speed; the ceiling
   sits at what the range allocates now. *)
let test_scenario_budget () =
  let seeds = 200 in
  (* the first run also fills the compiled-interface caches *)
  ignore (Dst.run_seed 1);
  let before = Gc.minor_words () in
  let failed = ref 0 in
  for seed = 1 to seeds do
    if Dst.report_failed (Dst.run_seed seed) then incr failed
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int seeds in
  Alcotest.(check int) "no failing seed" 0 !failed;
  let ceiling = 11303. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per scenario, ceiling %.0f" words ceiling)
    true (words <= ceiling)

let () =
  Alcotest.run "dst"
    [
      ( "determinism",
        [
          Alcotest.test_case "scenario of seed" `Quick
            test_scenario_deterministic;
          Alcotest.test_case "verdict of scenario" `Quick
            test_verdict_deterministic;
          Alcotest.test_case "plan/workload stream split" `Quick
            test_streams_independent;
          QCheck_alcotest.to_alcotest prop_seed_determinism;
          QCheck_alcotest.to_alcotest prop_run_determinism;
        ] );
      ( "generator",
        [
          Alcotest.test_case "mix weights respected" `Quick
            test_gen_respects_mix;
          Alcotest.test_case "op json roundtrip" `Quick
            test_gen_json_roundtrip;
          Alcotest.test_case "plan json roundtrip" `Quick
            test_plan_json_roundtrip;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "perturbed run deterministic" `Quick
            test_adversary_deterministic;
          Alcotest.test_case "silent witness reproduces" `Quick
            test_adversary_silent_witness;
          Alcotest.test_case "masked edge stays masked" `Quick
            test_adversary_masked;
          Alcotest.test_case "overshot anchor is inert" `Quick
            test_adversary_unfired;
        ] );
      ( "race-adversary",
        [
          Alcotest.test_case "walk-time perturbation observable" `Quick
            test_walk_perturbation_observable;
          Alcotest.test_case "no walk, no fire" `Quick
            test_walk_adversary_needs_walk;
          Alcotest.test_case "sustained confusion matrix explained" `Slow
            test_sustained_confusion_matrix;
          Alcotest.test_case "race rows identical across jobs" `Slow
            test_race_jobs_identical;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "pristine seeds clean" `Slow test_pristine_clean;
          Alcotest.test_case "pristine repros replay clean" `Quick
            test_pristine_repros;
          Alcotest.test_case "mutants detected" `Slow test_mutants_detected;
          Alcotest.test_case "compile-error mutants detected" `Quick
            test_compile_error_mutants_detected;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "sound, 1-minimal, replayable" `Slow
            test_shrunk_minimal_and_replayable;
          Alcotest.test_case "jobs-independent artifact" `Slow
            test_shrink_jobs_identical;
          Alcotest.test_case "jobs-independent campaign" `Slow
            test_run_seeds_jobs_identical;
        ] );
      ( "double-fault",
        [
          Alcotest.test_case "tolerated and stitched" `Quick
            test_double_fault_run;
          Alcotest.test_case "phases sum to span" `Quick
            test_double_fault_phases_sum;
          Alcotest.test_case "no false over-bound" `Quick
            test_double_fault_no_false_over_bound;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "canonical fields and order" `Quick
            test_artifact_fields;
          Alcotest.test_case "save/load" `Quick test_artifact_save_load;
          Alcotest.test_case "schema-first artifact loads" `Quick
            test_artifact_schema_first;
          Alcotest.test_case "unwritable artifact exits 2" `Quick
            test_unwritable_artifact;
          QCheck_alcotest.to_alcotest prop_parse_total;
          QCheck_alcotest.to_alcotest prop_artifact_total;
          QCheck_alcotest.to_alcotest prop_replay_total;
        ] );
      ( "stream",
        [ Alcotest.test_case "seeds 1..200 pinned" `Quick test_stream_pinned ] );
      ( "allocation",
        [ Alcotest.test_case "scenarios 1..200" `Quick test_scenario_budget ] );
    ]
