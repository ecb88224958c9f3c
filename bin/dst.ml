(* superglue-dst — property-based DST campaigns over the simulated OS.

   superglue-dst run     seed-deterministic campaign: generate scenarios,
                         execute under fault injection, judge with the
                         combined oracle; on a failure, shrink to a
                         1-minimal repro and write a replay artifact
   superglue-dst shrink  re-shrink a saved artifact (deterministic at
                         any -j; used by CI to cross-check parallelism)
   superglue-dst replay  rerun an artifact and verify its recorded
                         verdict class reproduces; --trace FILE writes
                         the replayed event stream as JSON lines
   superglue-dst mutants list the builtin mutation-testing mutants
   superglue-dst adversary
                         grade the static taint verdict table (sgc
                         taint) against live perturbed runs: one
                         Plan.Perturb per scenario, confusion-matrix
                         gate over the whole table
   superglue-dst race    grade the static race verdict table (sgc race)
                         against sustained recovery-racing perturbed
                         runs: crash the walker, perturb every in-walk
                         invocation of the pair's edge *)

open Cmdliner
module Dst = Sg_dst.Dst
module Exec = Sg_dst.Exec
module Gen = Sg_dst.Gen
module Plan = Sg_dst.Plan
module Artifact = Sg_dst.Artifact
module Shrink = Sg_dst.Shrink
module Mutate = Sg_analysis.Mutate
module Taint = Sg_analysis.Taint
module Race = Sg_analysis.Race

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"First seed.")

let count_arg =
  Arg.(
    value & opt int 20
    & info [ "count" ] ~docv:"N" ~doc:"Number of consecutive seeds to run.")

let mutant_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mutant" ] ~docv:"ID"
        ~doc:
          "Run against the named builtin mutant (see $(b,superglue-dst \
           mutants)) with a campaign focused on its interface.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"Write the repro artifact here.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"J"
        ~doc:
          "Campaign and shrink parallelism: seed scenarios and \
           shrink candidates evaluate across $(docv) domains. Output is \
           deterministic — the reports printed, the failing seed found \
           and the shrunk artifact are identical at every value.")

let no_shrink_arg =
  Arg.(
    value & flag
    & info [ "no-shrink" ]
        ~doc:"Write the original failing scenario without shrinking it.")

let quiet_arg =
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the summary.")

let workload_label = function
  | Exec.Ops ops -> Printf.sprintf "ops=%d" (List.length ops)
  | Exec.Classic { iface; iters; knob } ->
      Printf.sprintf "classic=%s iters=%d knob=%d" iface iters knob

(* an artifact that cannot be written is an I/O error: one line, exit 2 *)
let save_artifact path a =
  try Artifact.save path a
  with Sys_error msg ->
    Printf.eprintf "superglue-dst: cannot write artifact %s: %s\n" path msg;
    exit 2

let print_detail verdict =
  List.iter (Printf.printf "    %s\n") (Exec.verdict_detail verdict)

let emit_artifact ~out ~jobs ~sut ~no_shrink report =
  let artifact, stats_opt =
    match report.Dst.rr_result with
    | Error msg ->
        (* compile-error mutants have no runnable scenario: record the
           unshrunk scenario with a fatal verdict for the log *)
        Printf.printf "  mutant failed to compile: %s\n" msg;
        ( {
            Artifact.af_sut = Exec.sut_label sut;
            af_verdict = "fatal";
            af_scenario = report.Dst.rr_scenario;
          },
          None )
    | Ok o ->
        if no_shrink then
          ( {
              Artifact.af_sut = Exec.sut_label sut;
              af_verdict = Exec.verdict_class o.Exec.oc_verdict;
              af_scenario = report.Dst.rr_scenario;
            },
            None )
        else begin
          let a, stats = Dst.shrink_to_artifact ~jobs ~sut report.Dst.rr_scenario in
          (a, Some stats)
        end
  in
  (match stats_opt with
  | Some s ->
      Printf.printf
        "  shrunk: %d element(s) removed in %d sweep(s), %d execution(s)\n"
        s.Shrink.sh_removed s.Shrink.sh_sweeps s.Shrink.sh_evals
  | None -> ());
  match out with
  | None -> Printf.printf "  repro: %s\n" (Artifact.to_string artifact)
  | Some path ->
      save_artifact path artifact;
      Printf.printf "  repro written to %s\n" path

let run_cmd_fn seed count mutant out jobs no_shrink quiet =
  let sut, profile =
    match mutant with
    | None -> (Some Exec.Pristine, Dst.default_profile)
    | Some id -> (
        match Dst.find_mutant id with
        | Some m -> (Some (Exec.Mutant m), Dst.focus_profile m.Mutate.m_iface)
        | None -> (None, Dst.default_profile))
  in
  match sut with
  | _ when count <= 0 ->
      Printf.eprintf "superglue-dst: --count must be positive (got %d)\n" count;
      2
  | None ->
      Printf.eprintf "superglue-dst: unknown mutant %s\n" (Option.get mutant);
      2
  | Some sut ->
      let services = Hashtbl.create 8 in
      let ran = ref 0 in
      (* reports arrive in seed order regardless of --jobs, so the
         printed log is byte-identical at every parallelism level *)
      let on_report r =
        incr ran;
        List.iter
          (fun s -> Hashtbl.replace services s ())
          (Exec.services_of_workload r.Dst.rr_scenario.Exec.sc_workload);
        let verdict_str =
          match r.Dst.rr_result with
          | Error _ -> "compile-error"
          | Ok o -> Exec.verdict_class o.Exec.oc_verdict
        in
        if not quiet then
          Printf.printf "seed %d %s plan=%d verdict=%s\n" r.Dst.rr_seed
            (workload_label r.Dst.rr_scenario.Exec.sc_workload)
            (List.length r.Dst.rr_scenario.Exec.sc_plan)
            verdict_str
      in
      let failure = Dst.run_seeds ~sut ~profile ~jobs ~on_report ~seed ~count () in
      let failures =
        match failure with
        | None -> 0
        | Some r ->
            (match r.Dst.rr_result with
            | Ok o when not quiet -> print_detail o.Exec.oc_verdict
            | _ -> ());
            emit_artifact ~out ~jobs ~sut ~no_shrink r;
            1
      in
      Printf.printf "dst: %d seed(s), %d failure(s), services=%d, sut=%s\n"
        !ran failures (Hashtbl.length services) (Exec.sut_label sut);
      if failures > 0 then 1 else 0

(* a malformed or unreadable artifact is an input error: one line, exit 2 *)
let with_artifact path f =
  match Artifact.load path with
  | exception (Sg_util.Json.Parse_error msg | Sys_error msg) ->
      Printf.eprintf "superglue-dst: cannot load artifact %s: %s\n" path msg;
      2
  | a -> f a

let shrink_cmd_fn artifact_path out jobs =
  with_artifact artifact_path @@ fun a ->
  match Dst.sut_of_label a.Artifact.af_sut with
  | None ->
      Printf.eprintf "superglue-dst: unknown sut %s\n" a.Artifact.af_sut;
      2
  | Some sut -> (
      match Dst.shrink_to_artifact ~jobs ~sut a.Artifact.af_scenario with
      | shrunk, stats ->
          Printf.printf
            "shrunk: %d element(s) removed in %d sweep(s), %d execution(s), \
             verdict=%s\n"
            stats.Shrink.sh_removed stats.Shrink.sh_sweeps stats.Shrink.sh_evals
            shrunk.Artifact.af_verdict;
          (match out with
          | None -> print_string (Artifact.to_string shrunk ^ "\n")
          | Some path ->
              save_artifact path shrunk;
              Printf.printf "written to %s\n" path);
          0
      | exception Invalid_argument msg ->
          Printf.eprintf "superglue-dst: %s\n" msg;
          2)

(* opened before the replay runs: an unwritable path costs no work *)
let open_trace path =
  try open_out path
  with Sys_error msg ->
    Printf.eprintf "superglue-dst: cannot write trace %s\n" msg;
    exit 2

let replay_cmd_fn artifact_path trace =
  with_artifact artifact_path @@ fun a ->
  let oc = Option.map open_trace trace in
  match Dst.replay a with
  | Error msg ->
      Option.iter close_out_noerr oc;
      Printf.eprintf "superglue-dst: %s\n" msg;
      2
  | Ok (o, matches) ->
      Option.iter
        (fun oc ->
          Sg_obs.Jsonl.dump oc o.Exec.oc_stream;
          close_out oc)
        oc;
      Printf.printf "replay: verdict=%s recorded=%s %s\n"
        (Exec.verdict_class o.Exec.oc_verdict)
        a.Artifact.af_verdict
        (if matches then "(reproduced)" else "(MISMATCH)");
      print_detail o.Exec.oc_verdict;
      if matches then 0 else 1

(* How a verdict-table campaign prints: an entry's columns of its row,
   its witness label and artifact file name, and the head of the
   summary line. *)
type 'e table_format = {
  fm_columns : 'e -> string;
  fm_witness : 'e -> string;
  fm_file : 'e -> string;
  fm_summary : 'e Dst.row list -> string;
}

let grade_cmd_fn table format seed per_entry jobs out_dir quiet =
  let witnesses = ref [] in
  let on_row r =
    let t = r.Dst.rw_tally in
    if not quiet then
      Printf.printf "%s u=%d m=%d d=%d s=%d %s\n"
        (format.fm_columns r.Dst.rw_entry)
        t.Dst.n_unfired t.Dst.n_masked t.Dst.n_detected t.Dst.n_silent
        (if r.Dst.rw_ok then "ok" else "MISMATCH");
    match r.Dst.rw_witness with
    | Some sc -> witnesses := (r.Dst.rw_entry, sc) :: !witnesses
    | None -> ()
  in
  let rows, mismatches = Dst.grade ~jobs ~on_row ~seed ~per_entry (table ()) in
  let witnesses = List.rev !witnesses in
  (* the witness for each hunting claim is shrunk to a replayable
     artifact; shrinking is deterministic at every -j, so this block is
     byte-identical across parallelism levels too *)
  List.iter
    (fun (e, sc) ->
      let artifact, stats = Dst.shrink_to_artifact ~jobs sc in
      Printf.printf "witness %s: seed=%d shrunk to %s (%d removed, %d evals)\n"
        (format.fm_witness e) sc.Exec.sc_seed artifact.Artifact.af_verdict
        stats.Shrink.sh_removed stats.Shrink.sh_evals;
      Option.iter
        (fun dir ->
          save_artifact (Filename.concat dir (format.fm_file e)) artifact)
        out_dir)
    witnesses;
  Printf.printf "%s, %d witness(es), %d mismatch(es), seed=%d per-entry=%d\n"
    (format.fm_summary rows) (List.length witnesses) mismatches seed per_entry;
  if mismatches > 0 then 1 else 0

let out_dir_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "out-dir" ] ~docv:"DIR"
        ~doc:"Write one shrunk witness artifact per silent claim here.")

let grade_cmd name ~doc ~seed ~per_entry ~per_entry_doc table format =
  let seed_arg =
    Arg.(
      value & opt int seed
      & info [ "seed" ] ~docv:"SEED" ~doc:"Base seed of the campaign.")
  in
  let per_entry_arg =
    Arg.(
      value & opt int per_entry
      & info [ "per-entry" ] ~docv:"K" ~doc:per_entry_doc)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const (grade_cmd_fn table format)
      $ seed_arg $ per_entry_arg $ jobs_arg $ out_dir_arg $ quiet_arg)

let adversary_cmd =
  grade_cmd "adversary"
    ~doc:
      "Validate the static taint verdict table against live \
       edge-perturbed runs."
    ~seed:1000 ~per_entry:18
    ~per_entry_doc:
      "Scenario budget per verdict-table entry: seeds and anchor \
       positions scanned before a claim is graded."
    Dst.adversary_table
    {
      fm_columns =
        (fun e ->
          Printf.sprintf "%-6s %-16s %-14s %-9s" e.Taint.e_iface e.Taint.e_fn
            e.Taint.e_field
            (Taint.verdict_to_string e.Taint.e_verdict));
      fm_witness =
        (fun e ->
          Printf.sprintf "%s.%s %s" e.Taint.e_iface e.Taint.e_fn
            e.Taint.e_field);
      fm_file =
        (fun e ->
          Printf.sprintf "adv_%s_%s_%s.json" e.Taint.e_iface e.Taint.e_fn
            (String.map (function '@' -> 'x' | c -> c) e.Taint.e_field));
      fm_summary =
        (fun rows ->
          Printf.sprintf "adversary: %d entr(ies)" (List.length rows));
    }

let race_cmd =
  grade_cmd "race"
    ~doc:
      "Validate the static race verdict table against sustained \
       recovery-racing perturbed runs."
    ~seed:1100 ~per_entry:6
    ~per_entry_doc:
      "Scenario budget per race-table pair: seeds and crash anchors \
       scanned before a claim is graded."
    Dst.race_table
    {
      fm_columns =
        (fun e ->
          Printf.sprintf "%-6s %-8s %-18s %-7s %-10s" e.Race.r_walker
            e.Race.r_iface e.Race.r_fn e.Race.r_phase
            (Race.verdict_to_string e.Race.r_verdict));
      fm_witness =
        (fun e ->
          Printf.sprintf "walk(%s) vs %s.%s [%s]" e.Race.r_walker e.Race.r_iface
            e.Race.r_fn e.Race.r_field);
      fm_file =
        (fun e ->
          Printf.sprintf "race_%s_%s_%s.json" e.Race.r_walker e.Race.r_iface
            e.Race.r_fn);
      fm_summary =
        (fun rows ->
          Printf.sprintf "race: %d pair(s), %d racy" (List.length rows)
            (List.length
               (List.filter
                  (fun r -> r.Dst.rw_entry.Race.r_verdict = Race.Racy)
                  rows)));
    }

let mutants_cmd_fn () =
  List.iter
    (fun m -> Printf.printf "%s\n" m.Mutate.m_id)
    (Mutate.builtin_mutants ());
  0

let artifact_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "artifact" ] ~docv:"FILE" ~doc:"Repro artifact to load.")

let artifact_pos =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Repro artifact to load.")

let run_cmd =
  Cmd.v
    (Cmd.info "run" ~doc:"Run a seed-deterministic DST campaign.")
    Term.(
      const run_cmd_fn $ seed_arg $ count_arg $ mutant_arg $ out_arg $ jobs_arg
      $ no_shrink_arg $ quiet_arg)

let shrink_cmd =
  Cmd.v
    (Cmd.info "shrink" ~doc:"Shrink a saved artifact to a 1-minimal repro.")
    Term.(const shrink_cmd_fn $ artifact_arg $ out_arg $ jobs_arg)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the replayed scenario's full event stream to $(docv) as \
           JSON lines, the stream its verdict judged.")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay an artifact and verify its verdict.")
    Term.(const replay_cmd_fn $ artifact_pos $ trace_arg)

let mutants_cmd =
  Cmd.v
    (Cmd.info "mutants" ~doc:"List the builtin mutants.")
    Term.(const mutants_cmd_fn $ const ())

let () =
  let info =
    Cmd.info "superglue-dst" ~version:"1.0"
      ~doc:"Property-based DST campaigns with shrinking for SuperGlue."
  in
  exit (Cmd.eval' (Cmd.group info [ run_cmd; shrink_cmd; replay_cmd; mutants_cmd; adversary_cmd; race_cmd ]))
