(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Fig 6(a)/(b)/(c), Table II, Fig 7) and the
   BENCH_*.json throughput reports.

   Usage:
     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig6a fig6b fig6c table2 fig7
*)

module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Sim = Sg_os.Sim

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
  let last_metrics = ref None in
  Printf.printf "%-10s %-6s %8s %8s %7s %7s %10s\n" "mode" "iface" "events"
    "spans" "reboots" "walks" "violations";
  List.iter
    (fun (mode_name, mode) ->
      List.iter
        (fun iface ->
          let sys = Sysbuild.build mode in
          let sim = sys.Sysbuild.sys_sim in
          Sg_obs.Sink.set_retention (Sim.obs sim) Sg_obs.Sink.All;
          let check = Workloads.setup sys ~iface ~iters:30 in
          let target = Sysbuild.cid_of_iface sys iface in
          let count = ref 0 in
          Sim.set_on_dispatch sim
            (Some
               (fun sim cid _ ->
                 if cid = target then begin
                   incr count;
                   if !count mod 7 = 0 then begin
                     Sim.mark_failed sim cid ~detector:"storm";
                     raise (Sg_os.Comp.Crash { cid; detector = "storm" })
                   end
                 end));
          (match Sim.run sim with
          | Sim.Completed -> ()
          | r -> failwith (Format.asprintf "obs %s: %a" iface Sim.pp_run_result r));
          (match check () with
          | [] -> ()
          | v -> failwith ("obs " ^ iface ^ ": " ^ String.concat "; " v));
          let events = Sg_obs.Sink.events (Sim.obs sim) in
          let violations =
            Sg_obs.Check.run ~mode:`Ondemand ~completed:true events
          in
          let m = Sim.metrics sim in
          last_metrics := Some m;
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
  match !last_metrics with
  | None -> ()
  | Some m ->
      print_endline "\nmetrics fold of the last run:";
      Format.printf "%a@?" Sg_obs.Metrics.pp_summary m

(* ---------- perf benchmarks with machine-readable BENCH_*.json ---------- *)

let quick = ref false
let out_path = ref None
let jobs_list = ref [ 1; 2; 4 ]

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let bench_spec =
  {
    Sim.sc_name = "benchapp";
    sc_image_kb = 16;
    sc_init = (fun _ _ -> ());
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch = (fun _ _ _ _ -> Ok Sg_os.Comp.VUnit);
    sc_reflect = (fun _ _ _ _ -> Error Sg_os.Comp.EINVAL);
    sc_usage = (fun _ -> None);
  }

(* the dispatcher-loop workload: 64 threads over 8 priority bands, each
   alternating yields with short timed sleeps, so every iteration is a
   full scheduling decision and the sleeper queue gets real traffic *)
let sched_workload ~sched ~threads ~yields =
  let sim = Sim.create ~sched () in
  let app = Sim.register sim bench_spec in
  let dispatches = ref 0 in
  for i = 0 to threads - 1 do
    ignore
      (Sim.spawn sim ~prio:(i mod 8)
         ~name:(Printf.sprintf "t%d" i)
         ~home:app
         (fun sim ->
           for k = 1 to yields do
             incr dispatches;
             if k mod 16 = 0 then Sim.sleep_until sim (Sim.now sim + 1_000)
             else Sim.yield sim
           done))
  done;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> failwith (Format.asprintf "bench sched: run ended %a" Sim.pp_run_result r));
  !dispatches

let emit_ns_per_event ~subscriber ~events =
  let sink = Sg_obs.Sink.create ~retention:Sg_obs.Sink.Recovery () in
  if subscriber then Sg_obs.Sink.subscribe sink (fun _ -> ());
  let kind = Sg_obs.Event.Span_end { span = 1; server = 1; ok = true } in
  let (), s =
    wall (fun () ->
        for i = 1 to events do
          Sg_obs.Sink.emit sink ~at_ns:i ~tid:1 kind
        done)
  in
  s /. float_of_int events *. 1e9

module Json = Sg_util.Json

(* a BENCH_*.json report: one compact line, keyed by "bench" (the field
   tools/bench_diff.py dispatches on) instead of a versioned envelope *)
let write_json path bench fields =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (Json.to_string (Json.Obj (("bench", Json.Str bench) :: ("quick", Json.Bool !quick) :: fields)));
      output_char oc '\n');
  Printf.printf "wrote %s\n%!" path

(* one row per -j level of a sweep timed as [(j, (_, wall_s))], the
   first level being the j=1 reference *)
let jobs_json ~rate_key ~work results =
  let base_s = snd (snd (List.hd results)) in
  Json.List
    (List.map
       (fun (j, (_, s)) ->
         Json.Obj
           [
             ("j", Json.Int j);
             ("wall_s", Json.Float s);
             (rate_key, Json.Float (float_of_int work /. s));
             ("speedup_vs_j1", Json.Float (base_s /. s));
           ])
       results)

let sched_perf () =
  hr "bench sched: dispatcher-loop throughput, list-scan vs indexed run-queue";
  let threads = 64 in
  let yields = if !quick then 200 else 2_000 in
  let measure sched =
    (* one warm-up run, then the timed run *)
    ignore (sched_workload ~sched ~threads ~yields);
    let dispatches, s = wall (fun () -> sched_workload ~sched ~threads ~yields) in
    (dispatches, s, float_of_int dispatches /. s)
  in
  let scan_n, scan_s, scan_rate = measure `Scan in
  let idx_n, idx_s, idx_rate = measure `Indexed in
  let speedup = idx_rate /. scan_rate in
  let emit_drop = emit_ns_per_event ~subscriber:false ~events:2_000_000 in
  let emit_sub = emit_ns_per_event ~subscriber:true ~events:2_000_000 in
  Printf.printf "%-28s %12s %12s %14s\n" "backend" "dispatches" "wall s"
    "dispatch/s";
  Printf.printf "%-28s %12d %12.4f %14.0f\n" "scan (legacy)" scan_n scan_s
    scan_rate;
  Printf.printf "%-28s %12d %12.4f %14.0f\n" "indexed (runq)" idx_n idx_s
    idx_rate;
  Printf.printf "speedup (indexed vs scan): %.2fx\n" speedup;
  Printf.printf
    "sink emit: %.1f ns/event dropped unboxed, %.1f ns/event with subscriber\n"
    emit_drop emit_sub;
  let path = Option.value !out_path ~default:"BENCH_sched.json" in
  let run n s rate =
    Json.Obj
      [ ("dispatches", Json.Int n); ("wall_s", Json.Float s); ("dispatch_per_s", Json.Float rate) ]
  in
  write_json path "sched"
    [
      ("threads", Json.Int threads);
      ("yields_per_thread", Json.Int yields);
      ("scan", run scan_n scan_s scan_rate);
      ("indexed", run idx_n idx_s idx_rate);
      ("speedup_indexed_vs_scan", Json.Float speedup);
      ( "emit_ns_per_event",
        Json.Obj
          [ ("dropped_unboxed", Json.Float emit_drop); ("with_subscriber", Json.Float emit_sub) ]
      );
    ]

(* A campaign at the scale the driver is built for: a million
   injections spread across all six services, swept over the -j list.
   Three gates ride along: every jobs level must produce the exact
   reference rows (determinism), and a final pass at max jobs streams
   each chunk's stitched episodes through the static Wcr bound check
   (--verify-bounds equivalent) which must come back clean. *)
let campaign_scale () =
  hr "bench campaign-scale: million-injection SWIFI campaign, all services";
  let mode = Superglue.Stubset.mode in
  let services = Workloads.all_ifaces in
  let nsvc = List.length services in
  let per_service = (if !quick then 60_000 else 1_000_000) / nsvc in
  let injections_total = per_service * nsvc in
  let run_sweep jobs =
    wall (fun () ->
        List.map
          (fun iface ->
            Sg_swifi.Pardriver.run ~jobs ~mode ~iface ~injections:per_service
              ())
          services)
  in
  let results = List.map (fun j -> (j, run_sweep j)) !jobs_list in
  let _, (ref_rows, base_s) = List.hd results in
  Printf.printf "%-6s %12s %10s %14s %10s\n" "jobs" "injections" "wall s"
    "injections/s" "speedup";
  List.iter
    (fun (j, (rows, s)) ->
      (* determinism gate: per-service rows identical at every -j *)
      assert (rows = ref_rows);
      Printf.printf "%-6d %12d %10.3f %14.0f %10.2fx\n" j injections_total s
        (float_of_int injections_total /. s)
        (base_s /. s))
    results;
  (* bound-verification pass at max jobs: stream episodes chunk-by-chunk
     through the static bound (constant memory even at this scale) *)
  let vjobs = List.fold_left max 1 !jobs_list in
  let wcr =
    Sg_analysis.Wcr.analyze
      (List.map Superglue.Compiler.builtin Superglue.Compiler.builtin_names)
  in
  let bounds = ref Sg_swifi.Campaign.no_bounds in
  let (), verify_s =
    wall (fun () ->
        List.iter
          (fun iface ->
            match
              Sg_analysis.Wcr.bound_for wcr ~crashed:iface ~client:iface
            with
            | None -> failwith ("campaign-scale: no static bound for " ^ iface)
            | Some bound_ns ->
                ignore
                  (Sg_swifi.Pardriver.run ~jobs:vjobs ~mode ~iface
                     ~injections:per_service
                     ~on_episodes:(fun ~seed:_ eps ->
                       bounds :=
                         Sg_swifi.Campaign.fold_bounds ~bound_ns !bounds eps)
                     ()))
          services)
  in
  let b = !bounds in
  let violations = List.length b.Sg_swifi.Campaign.b_violations in
  Printf.printf
    "verify-bounds -j %d: episodes=%d complete=%d max_span=%dns \
     violations=%d (%.1f s)\n"
    vjobs b.b_episodes b.b_complete b.b_max_span_ns violations verify_s;
  assert (violations = 0);
  let path = Option.value !out_path ~default:"BENCH_campaign.json" in
  write_json path "campaign-scale"
    [
      ("services", Json.Int nsvc);
      ("injections_total", Json.Int injections_total);
      ("injections_per_service", Json.Int per_service);
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", jobs_json ~rate_key:"injections_per_s" ~work:injections_total results);
      ( "verify_bounds",
        Json.Obj
          [
            ("jobs", Json.Int vjobs);
            ("episodes", Json.Int b.b_episodes);
            ("complete", Json.Int b.b_complete);
            ("max_span_ns", Json.Int b.b_max_span_ns);
            ("violations", Json.Int violations);
            ("wall_s", Json.Float verify_s);
          ] );
    ]

(* The open-loop web harness at benchmark scale: one fault-period sweep
   (fault-free, 3ms, 1ms) per jobs level, with the campaign-scale
   determinism gate — every jobs level must reproduce the exact j=1
   outcomes, histograms and all — plus a tail-latency sanity gate
   (p50 <= p99 <= p999 per population). *)
let web_tail () =
  hr "bench web-tail: open-loop load, recovery-under-load tail latency";
  let module Loadgen = Sg_web.Loadgen in
  let module Reqjoin = Sg_obs.Reqjoin in
  let module Hist = Sg_obs.Hist in
  let mode = Superglue.Stubset.mode in
  let requests = if !quick then 4_000 else 40_000 in
  let cfg = { Loadgen.default with Loadgen.lg_requests = requests } in
  let periods = [ None; Some 3_000_000; Some 1_000_000 ] in
  let total = requests * List.length periods in
  let run_sweep jobs =
    wall (fun () -> Loadgen.sweep ~jobs ~mode ~periods cfg)
  in
  let results = List.map (fun j -> (j, run_sweep j)) !jobs_list in
  let _, (ref_rows, base_s) = List.hd results in
  Printf.printf "%-6s %12s %10s %14s %10s\n" "jobs" "requests" "wall s"
    "req/s (wall)" "speedup";
  List.iter
    (fun (j, (rows, s)) ->
      (* determinism gate: outcomes identical at every -j *)
      assert (rows = ref_rows);
      Printf.printf "%-6d %12d %10.3f %14.0f %10.2fx\n" j total s
        (float_of_int total /. s)
        (base_s /. s))
    results;
  Printf.printf "\n%-9s %7s %8s %9s %9s %7s %10s %10s %10s %12s\n" "period"
    "faults" "reboots" "offered/s" "served/s" "drops" "clean p50" "clean p99"
    "clean p999" "shadowed p99";
  let sane h =
    Hist.n h = 0
    || Hist.percentile h 0.50 <= Hist.percentile h 0.99
       && Hist.percentile h 0.99 <= Hist.percentile h 0.999
  in
  List.iter
    (fun (o : Loadgen.outcome) ->
      let t = o.Loadgen.oc_join in
      assert (sane t.Reqjoin.tj_clean && sane t.Reqjoin.tj_shadowed);
      Printf.printf "%-9s %7d %8d %9.0f %9.0f %7d %10d %10d %10d %12d\n"
        (match o.Loadgen.oc_fault_period_ns with
        | None -> "none"
        | Some ns -> Printf.sprintf "%dms" (ns / 1_000_000))
        o.Loadgen.oc_result.Loadgen.lr_faults o.Loadgen.oc_reboots
        (Reqjoin.offered_rps t) (Reqjoin.served_rps t) t.Reqjoin.tj_dropped
        (Hist.percentile t.Reqjoin.tj_clean 0.50)
        (Hist.percentile t.Reqjoin.tj_clean 0.99)
        (Hist.percentile t.Reqjoin.tj_clean 0.999)
        (Hist.percentile t.Reqjoin.tj_shadowed 0.99))
    ref_rows;
  let path = Option.value !out_path ~default:"BENCH_web.json" in
  let row (o : Loadgen.outcome) =
    let t = o.Loadgen.oc_join in
    let pct h p = Json.Int (Hist.percentile h p) in
    Json.Obj
      [
        ( "fault_period_ms",
          Json.Int (match o.Loadgen.oc_fault_period_ns with None -> 0 | Some ns -> ns / 1_000_000) );
        ("faults", Json.Int o.Loadgen.oc_result.Loadgen.lr_faults);
        ("reboots", Json.Int o.Loadgen.oc_reboots);
        ("offered_rps", Json.Float (Reqjoin.offered_rps t));
        ("served_rps", Json.Float (Reqjoin.served_rps t));
        ("dropped", Json.Int t.Reqjoin.tj_dropped);
        ("clean_p50_ns", pct t.Reqjoin.tj_clean 0.50);
        ("clean_p99_ns", pct t.Reqjoin.tj_clean 0.99);
        ("clean_p999_ns", pct t.Reqjoin.tj_clean 0.999);
        ("shadowed_p99_ns", pct t.Reqjoin.tj_shadowed 0.99);
        ("shadowed_p999_ns", pct t.Reqjoin.tj_shadowed 0.999);
      ]
  in
  write_json path "web-tail"
    [
      ("requests", Json.Int requests);
      ("mode", Json.Str "superglue");
      ("host_cores", Json.Int (Domain.recommended_domain_count ()));
      ("jobs", jobs_json ~rate_key:"req_per_s" ~work:total results);
      ("rows", Json.List (List.map row ref_rows));
    ]

let all =
  [
    ("fig6a", fig6a);
    ("fig6b", fig6b);
    ("fig6c", fig6c);
    ("table2", table2);
    ("fig7", fig7);
    ("ablation", ablation);
    ("obs", obs);
    ("sched", sched_perf);
    ("campaign-scale", campaign_scale);
    ("web-tail", web_tail);
  ]

let () =
  Sg_util.Pool.tune_gc ();
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
        quick := true;
        parse acc rest
    | "--out" :: path :: rest ->
        out_path := Some path;
        parse acc rest
    | "-j" :: spec :: rest ->
        jobs_list := List.map int_of_string (String.split_on_char ',' spec);
        parse acc rest
    | name :: rest -> parse (name :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
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
