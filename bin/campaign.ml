(* superglue-campaign — the SWIFI fault-injection campaign CLI
   (paper §V-D, Table II). *)

open Cmdliner
module Campaign = Sg_swifi.Campaign
module Sysbuild = Sg_components.Sysbuild

let mode_arg =
  Arg.(
    value
    & opt Modearg.conv Modearg.superglue
    & info [ "mode" ] ~docv:"MODE" ~doc:(Modearg.doc ^ "."))

let iface_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "iface" ] ~docv:"IFACE"
        ~doc:"Target one service (sched mm fs lock evt timer); default: all six.")

let injections_arg =
  Arg.(
    value & opt int 500
    & info [ "n"; "injections" ] ~docv:"N" ~doc:"Faults to inject per service.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed.")

let cmon_arg =
  Arg.(
    value & flag
    & info [ "cmon" ]
        ~doc:
          "Arm the C'MON latent-fault monitor: loop-bound hangs are \
           detected within an execution-budget overrun and recovered \
           instead of hanging the system.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan campaign chunks across $(docv) domains. Results are \
           deterministic: totals are identical for every $(docv), and \
           $(docv)=1 output is byte-identical to the sequential driver.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the campaign's full structured event stream (all chunks, \
           re-stamped into one monotone JSON-lines stream with a \
           sys-reboot note at each chunk boundary) to $(docv). Requires \
           --iface.")

(* Concatenate per-chunk event streams into one checkable stream: one
   global sequence numbering, virtual timestamps offset to stay monotone
   across chunk boundaries, and a "sys-reboot" note separating chunks
   (Sg_obs.Check resets its run-scoped state there). Each chunk is
   written as [Pardriver] hands it over, in seed order, so the campaign
   holds at most one chunk's events. *)
let make_trace_writer path =
  (* opened before the campaign runs: an unwritable path costs no work *)
  let oc =
    try open_out path
    with Sys_error msg ->
      Printf.eprintf "superglue-campaign: cannot write %s\n" msg;
      exit 2
  in
  let b = Buffer.create 256 in
  let seq = ref 0 in
  let last_at = ref 0 in
  let first = ref true in
  let write ~at_ns ~tid kind =
    Buffer.clear b;
    Sg_obs.Jsonl.add_event b { Sg_obs.Event.seq = !seq; at_ns; tid; kind };
    Buffer.add_char b '\n';
    Buffer.output_buffer oc b;
    incr seq;
    last_at := max !last_at at_ns
  in
  let on_chunk ~seed:_ events =
    if not !first then
      write ~at_ns:!last_at ~tid:(-1)
        (Sg_obs.Event.Note
           { name = "sys-reboot"; data = "campaign chunk boundary" });
    first := false;
    let base = !last_at in
    List.iter
      (fun (e : Sg_obs.Event.t) ->
        write
          ~at_ns:(base + e.Sg_obs.Event.at_ns)
          ~tid:e.Sg_obs.Event.tid e.Sg_obs.Event.kind)
      events
  in
  let finish () =
    close_out oc;
    Printf.eprintf "superglue-campaign: wrote %d events to %s\n" !seq path
  in
  (on_chunk, finish)

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Stitch each chunk's event stream into recovery episodes and \
           print the episode profile (phase breakdown, critical paths, \
           per-component time attribution) after the campaign row. \
           Deterministic across -j. Requires --iface.")

let verify_bounds_arg =
  Arg.(
    value & flag
    & info [ "verify-bounds" ]
        ~doc:
          "Check every stitched recovery episode against the static \
           worst-case recovery-latency bound of the targeted service \
           (sgc bound; Sg_analysis.Wcr) and exit 1 on any violation. \
           Requires --iface.")

(* The static bound for a crash of [iface] observed at its own
   interface — the pair the campaign's episodes realize. *)
let static_bound iface =
  let artifacts =
    List.map Superglue.Compiler.builtin Superglue.Compiler.builtin_names
  in
  let report = Sg_analysis.Wcr.analyze artifacts in
  Sg_analysis.Wcr.bound_for report ~crashed:iface ~client:iface

let report_bounds ~iface ~bound_ns (b : Campaign.bounds) =
  let violations = List.rev b.b_violations in
  if b.b_complete = 0 then
    Printf.printf
      "bound-check %s: episodes=%d complete=0 bound=%dns (no complete \
       episode to check)\n"
      iface b.b_episodes bound_ns
  else
    Printf.printf
      "bound-check %s: episodes=%d complete=%d max_span=%dns bound=%dns \
       tightness=%.2fx violations=%d\n"
      iface b.b_episodes b.b_complete b.b_max_span_ns bound_ns
      (float_of_int bound_ns /. float_of_int b.b_max_span_ns)
      (List.length violations);
  List.iter
    (fun e ->
      Printf.printf
        "bound-check %s: VIOLATION episode at %dns: span=%dns > bound=%dns\n"
        iface e.Sg_obs.Episode.ep_detect_ns
        (Sg_obs.Episode.span_ns e)
        bound_ns)
    violations;
  violations <> []

let run (_, mode) iface injections seed cmon jobs trace profile verify_bounds =
  let cmon_period_ns = if cmon then Some 5_000 else None in
  match (trace, profile, verify_bounds, iface) with
  | Some _, _, _, None ->
      prerr_endline "superglue-campaign: --trace requires --iface";
      exit 2
  | _, true, _, None ->
      prerr_endline "superglue-campaign: --profile requires --iface";
      exit 2
  | _, _, true, None ->
      prerr_endline "superglue-campaign: --verify-bounds requires --iface";
      exit 2
  | _, _, _, Some iface
    when not (List.mem iface Sg_components.Workloads.all_ifaces) ->
      Printf.eprintf "superglue-campaign: unknown interface %s (have: %s)\n"
        iface
        (String.concat " " Sg_components.Workloads.all_ifaces);
      exit 2
  | _ -> (
      let writer = Option.map make_trace_writer trace in
      let on_chunk = Option.map fst writer in
      match iface with
      | Some iface ->
          let bound =
            if verify_bounds then Some (static_bound iface) else None
          in
          let bound_ns = Option.join bound in
          let bounds = ref Campaign.no_bounds in
          let episodes = ref [] in (* most recent first, for --profile *)
          let on_episodes =
            if bound_ns = None && not profile then None
            else
              Some
                (fun ~seed:_ eps ->
                  Option.iter
                    (fun bound_ns ->
                      bounds := Campaign.fold_bounds ~bound_ns !bounds eps)
                    bound_ns;
                  if profile then episodes := List.rev_append eps !episodes)
          in
          let row =
            Sg_swifi.Pardriver.run ~seed ?cmon_period_ns ?on_chunk ?on_episodes
              ~jobs ~mode ~iface ~injections ()
          in
          Format.printf "%a@." Campaign.pp_row row;
          if profile then
            Format.printf "%a@?" Sg_obs.Profile.pp (List.rev !episodes);
          let violated =
            match bound with
            | None -> false
            | Some None ->
                Printf.printf
                  "bound-check %s: no static bound (interface unbounded or \
                   unknown)\n"
                  iface;
                false
            | Some (Some bound_ns) -> report_bounds ~iface ~bound_ns !bounds
          in
          Option.iter (fun (_, finish) -> finish ()) writer;
          if violated then exit 1
      | None ->
          if cmon then
            List.iter
              (fun iface ->
                let row =
                  Sg_swifi.Pardriver.run ~seed ?cmon_period_ns ~jobs ~mode
                    ~iface ~injections ()
                in
                Format.printf "%a@." Campaign.pp_row row)
              Sg_components.Workloads.all_ifaces
          else Sg_harness.Table2.print ~mode ~injections ~jobs ())

let () =
  let term =
    Term.(
      const run $ mode_arg $ iface_arg $ injections_arg $ seed_arg $ cmon_arg
      $ jobs_arg $ trace_arg $ profile_arg $ verify_bounds_arg)
  in
  let info =
    Cmd.info "superglue-campaign"
      ~doc:"SWIFI register bit-flip fault-injection campaign (Table II)"
  in
  exit (Cmd.eval (Cmd.v info term))
