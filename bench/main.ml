(* The paper-table harness: regenerates every table and figure of the
   paper's evaluation (Fig 6(a)/(b)/(c), Table II, Fig 7), the
   eager-vs-on-demand ablation and the crash-storm stream check. Host
   time is measured by hostbench/, not here.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig6a fig6b fig6c table2 fig7
*)

module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads

let hr title =
  Printf.printf "\n==== %s %s\n%!" title
    (String.make (max 1 (66 - String.length title)) '=')

(* ---------- the paper's tables and figures ---------- *)

let fig6a () =
  hr "Fig 6(a): infrastructure overhead";
  let rows = Sg_harness.Fig6.infrastructure () in
  Sg_util.Table.print
    ~header:[ "Component"; "base us/iter"; "C3 +us"; "sd"; "SuperGlue +us"; "sd" ]
    (List.map
       (fun r ->
         let open Sg_harness.Fig6 in
         [
           r.o_iface;
           Printf.sprintf "%.2f" r.o_base_us;
           Printf.sprintf "%.2f" r.o_c3.Sg_util.Stats.mean;
           Printf.sprintf "%.2f" r.o_c3.Sg_util.Stats.stdev;
           Printf.sprintf "%.2f" r.o_sg.Sg_util.Stats.mean;
           Printf.sprintf "%.2f" r.o_sg.Sg_util.Stats.stdev;
         ])
       rows);
  print_endline
    "(paper Fig 6(a): SuperGlue has overhead similar to, slightly above, C3)"

let fig6b () =
  hr "Fig 6(b): per-descriptor recovery overhead";
  let rows = Sg_harness.Fig6.recovery () in
  Sg_util.Table.print
    ~header:[ "Component"; "C3 us/desc"; "sd"; "SuperGlue us/desc"; "sd" ]
    (List.map
       (fun r ->
         let open Sg_harness.Fig6 in
         [
           r.v_iface;
           Printf.sprintf "%.2f" r.v_c3.Sg_util.Stats.mean;
           Printf.sprintf "%.2f" r.v_c3.Sg_util.Stats.stdev;
           Printf.sprintf "%.2f" r.v_sg.Sg_util.Stats.mean;
           Printf.sprintf "%.2f" r.v_sg.Sg_util.Stats.stdev;
         ])
       rows);
  print_endline
    "(paper Fig 6(b): recovery cost correlates with the mechanisms used;\n\
     the event manager, needing storage + upcalls, costs the most; the\n\
     lock among the least)"

let fig6c () =
  hr "Fig 6(c): lines of recovery code";
  let rows = Sg_harness.Fig6.loc () in
  Sg_util.Table.print
    ~header:[ "Component"; "SuperGlue IDL"; "generated"; "hand-written C3" ]
    (List.map
       (fun r ->
         let open Sg_harness.Fig6 in
         [
           r.l_iface;
           string_of_int r.l_idl;
           string_of_int r.l_generated;
           string_of_int r.l_c3;
         ])
       rows)

let table2 () =
  hr "Table II: SWIFI fault-injection campaign (500 faults/component)";
  Sg_harness.Table2.print ()

let fig7 () =
  hr "Fig 7: web server throughput";
  Sg_harness.Fig7.print ()

let ablation () =
  hr "Ablation: eager vs on-demand recovery";
  Sg_harness.Ablation.print ()

(* Crash-storm every interface in both stub modes with full event
   retention, validate the stream against the recovery invariants, and
   print the metrics fold of the last run. *)
let obs () =
  hr "Observability: crash-storm event streams + invariant checker";
  let last_events = ref None in
  Printf.printf "%-10s %-6s %8s %8s %7s %7s %10s\n" "mode" "iface" "events"
    "spans" "reboots" "walks" "violations";
  List.iter
    (fun (mode_name, mode) ->
      List.iter
        (fun iface ->
          let events =
            match
              Workloads.run_storm (Sysbuild.build mode) ~iface ~iters:30
                ~every:(Some 7) ~detector:"storm"
            with
            | Ok events -> events
            | Error msg -> failwith ("obs " ^ iface ^ ": " ^ msg)
          in
          let violations =
            Sg_obs.Check.run ~mode:`Ondemand ~completed:true events
          in
          (* the stream is the whole run, so its fold is the live one *)
          let m = Sg_obs.Metrics.create () in
          List.iter (Sg_obs.Metrics.feed m) events;
          last_events := Some events;
          Printf.printf "%-10s %-6s %8d %8d %7d %7d %10d\n" mode_name iface
            (List.length events)
            (Sg_obs.Metrics.invocations m)
            (Sg_obs.Metrics.reboots m)
            (Sg_obs.Metrics.walks m)
            (List.length violations);
          List.iteri
            (fun i v ->
              if i < 5 then
                Format.printf "    %a@." Sg_obs.Check.pp_violation v)
            violations)
        Workloads.all_ifaces)
    [
      ("c3", Sysbuild.Stubbed Sysbuild.c3_stubset);
      ("superglue", Superglue.Stubset.mode);
    ];
  match !last_events with
  | None -> ()
  | Some events ->
      print_endline "\nmetrics fold of the last run:";
      Format.printf "%a@?" Sg_obs.Metrics.pp_summary events

let all =
  [
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig6c", fig6c);
    ("table2", table2);
    ("fig7", fig7);
    ("ablation", ablation);
    ("obs", obs);
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst all
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown benchmark %s (have: %s)\n" name
            (String.concat " " (List.map fst all));
          exit 1)
    requested
