(* sgtrace — structured-trace tooling over the sg_obs event stream.

   sgtrace dump     run a workload (optionally under a crash storm) with
                    full event retention and write JSON-lines to stdout
                    or a file; exit 1 with one stderr line when the run
                    does not complete or its postconditions fail
   sgtrace check    validate a JSON-lines stream against the recovery
                    invariants; non-zero exit on any violation
   sgtrace summary  replay a JSON-lines stream through the metrics fold
                    and print the summary
   sgtrace profile  stitch the stream into recovery episodes and print
                    per-episode timelines, critical paths and the
                    per-component attribution table (or --json)
   sgtrace tail     join Http_req spans against the stream's recovery
                    episodes: clean vs fault-shadowed latency, per-episode
                    tail impact, throughput and queue depth (or --json) *)

open Cmdliner
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads

let mode_arg =
  Arg.(
    value
    & opt Modearg.conv Modearg.superglue
    & info [ "mode" ] ~docv:"MODE" ~doc:(Modearg.doc ^ "."))

let iface_arg =
  Arg.(
    value & opt string "fs"
    & info [ "iface" ] ~docv:"IFACE"
        ~doc:"Workload interface (sched mm fs lock evt timer).")

let iters_arg =
  Arg.(
    value & opt int 30
    & info [ "iters" ] ~docv:"N" ~doc:"Workload iterations.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulator seed.")

let storm_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "storm" ] ~docv:"K"
        ~doc:
          "Crash storm: fail-stop the target service on every K-th dispatch \
           into it.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the JSON-lines stream to $(docv) instead of stdout.")

let file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"JSON-lines event stream (default: stdin).")

let check_mode_arg =
  Arg.(
    value
    & opt (some (enum [ ("ondemand", `Ondemand); ("eager", `Eager) ])) None
    & info [ "recovery-mode" ] ~docv:"MODE"
        ~doc:
          "Additionally enforce the T0/T1 walk rules for this recovery mode \
           (ondemand or eager).")

let incomplete_arg =
  Arg.(
    value & flag
    & info [ "incomplete" ]
        ~doc:
          "The stream is a prefix of a run: skip the end-of-stream \
           quiescence checks.")

let dump (_, mode) iface iters seed storm out =
  if (match storm with Some k -> k <= 0 | None -> false) then begin
    prerr_endline "sgtrace: --storm must be positive";
    2
  end
  else if not (List.mem iface Workloads.all_ifaces) then begin
    Printf.eprintf "sgtrace: unknown interface %s (have: %s)\n" iface
      (String.concat " " Workloads.all_ifaces);
    2
  end
  else
    match
      Workloads.run_storm (Sysbuild.build ~seed mode) ~iface ~iters ~every:storm
        ~detector:"sgtrace-storm"
    with
    | Error msg ->
        Printf.eprintf "sgtrace: %s\n" msg;
        1
    | Ok events ->
        (match out with
        | None -> Sg_obs.Jsonl.dump stdout events
        | Some path ->
            let oc =
              try open_out path
              with Sys_error msg ->
                Printf.eprintf "sgtrace: cannot write %s\n" msg;
                exit 2
            in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> Sg_obs.Jsonl.dump oc events);
            Printf.eprintf "sgtrace: wrote %d events to %s\n"
              (List.length events) path);
        0

let load_events = function
  | None -> Sg_obs.Jsonl.load stdin
  | Some path ->
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Sg_obs.Jsonl.load ic)

(* load [file] (stdin when absent) and hand its events to [report],
   which returns the exit code; a parse or I/O error exits 2 *)
let with_events file report =
  match load_events file with
  | exception Sg_obs.Jsonl.Parse_error msg ->
      Printf.eprintf "sgtrace: parse error: %s\n" msg;
      2
  | exception Sys_error msg ->
      Printf.eprintf "sgtrace: %s\n" msg;
      2
  | events -> report events

let check file recovery_mode incomplete =
  with_events file (fun events ->
      let violations =
        Sg_obs.Check.run ?mode:recovery_mode ~completed:(not incomplete) events
      in
      match violations with
      | [] ->
          Printf.printf "ok: %d events, all invariants hold\n" (List.length events);
          0
      | vs ->
          List.iter
            (fun v -> Format.printf "violation: %a@." Sg_obs.Check.pp_violation v)
            vs;
          Printf.printf "%d violation(s) in %d events\n" (List.length vs)
            (List.length events);
          1)

let summary file =
  with_events file (fun events ->
      Printf.printf "%d events\n" (List.length events);
      Format.printf "%a@?" Sg_obs.Metrics.pp_summary events;
      0)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit a versioned machine-readable profile instead of text.")

let profile file json =
  with_events file (fun events ->
      let eps = Sg_obs.Episode.of_events events in
      if json then
        let source = match file with Some p -> p | None -> "<stdin>" in
        print_endline (Sg_util.Json.to_string (Sg_obs.Profile.to_json ~source eps))
      else Format.printf "%a@?" Sg_obs.Profile.pp eps;
      0)

let tail file json =
  with_events file (fun events ->
      let t = Sg_obs.Reqjoin.of_events events in
      if json then
        print_endline
          (Sg_util.Json.to_string
             (Sg_util.Json.versioned_report ~schema:"sg-reqjoin"
                ~version:Sg_obs.Reqjoin.json_version
                [ ("join", Sg_obs.Reqjoin.to_json t) ]))
      else Format.printf "%a@?" Sg_obs.Reqjoin.pp t;
      0)

let dump_cmd =
  let term =
    Term.(
      const dump $ mode_arg $ iface_arg $ iters_arg $ seed_arg $ storm_arg
      $ out_arg)
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Run a workload with full event retention and export JSON-lines; \
          exits 1 when the run does not complete or fails its \
          postconditions, 2 on bad arguments.")
    term

let check_cmd =
  let term = Term.(const check $ file_arg $ check_mode_arg $ incomplete_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate an event stream against the recovery-ordering invariants; \
          exits 1 on violations, 2 on parse errors.")
    term

let summary_cmd =
  let term = Term.(const summary $ file_arg) in
  Cmd.v
    (Cmd.info "summary"
       ~doc:"Fold an event stream through the metrics and print the totals.")
    term

let profile_cmd =
  let term = Term.(const profile $ file_arg $ json_arg) in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Stitch an event stream into recovery episodes; print per-episode \
          phase breakdowns, ASCII timelines, critical paths and the \
          per-component time attribution (or a versioned JSON profile with \
          $(b,--json)).")
    term

let tail_cmd =
  let term = Term.(const tail $ file_arg $ json_arg) in
  Cmd.v
    (Cmd.info "tail"
       ~doc:
         "Join the stream's Http_req spans against its recovery episodes: \
          clean vs fault-shadowed latency populations, per-episode tail \
          impact, offered-vs-served throughput and queue-depth profile (or \
          a versioned JSON report with $(b,--json)).")
    term

let () =
  let info =
    Cmd.info "sgtrace"
      ~doc:
        "Structured recovery-trace tooling (dump, check, summary, profile, \
         tail)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ dump_cmd; check_cmd; summary_cmd; profile_cmd; tail_cmd ]))
