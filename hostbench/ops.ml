module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Campaign = Sg_swifi.Campaign
module Injector = Sg_swifi.Injector
module Hist = Sg_obs.Hist
module Metrics = Sg_obs.Metrics
module Sink = Sg_obs.Sink
module Event = Sg_obs.Event
module Episode = Sg_obs.Episode
module Jsonl = Sg_obs.Jsonl
module Check = Sg_obs.Check
module Profile = Sg_obs.Profile
module Reqjoin = Sg_obs.Reqjoin
module Dst = Sg_dst.Dst
module Exec = Sg_dst.Exec
module Loadgen = Sg_web.Loadgen
module Server = Sg_web.Server
module Compiler = Superglue.Compiler
module Rng = Sg_util.Rng

type outcome = {
  o_work : int;
  o_digest : int array;
  o_errors : string list;
  o_vt : Hist.t -> unit;
  o_fail : int * int;
  o_failing : string list;
}

type t = {
  unit_name : string;
  ops : int;
  vt_hist : unit -> Hist.t;
  run : traced:bool -> int -> unit -> outcome;
  extra : unit -> (string * float) list;
}

let mode = Superglue.Stubset.mode
let names = [ "campaign"; "campaign-trace"; "dst"; "web" ]

(* At least 1000 ops per pass, so that the p99 over the op set has ten
   ops beyond it. One pass takes one to five seconds on a 2-core container. *)
let default_ops = function
  | "campaign" -> 3_000
  | "campaign-trace" -> 2_000
  | "dst" -> 4_000
  | "web" -> 1_000
  | w -> invalid_arg ("unknown workload " ^ w)

let warm_caches () =
  List.iter (fun i -> ignore (Compiler.builtin i)) Compiler.builtin_names

let fine_hist () = Hist.create ~mode:(Hist.Log_linear 7) ()

let outcome ?(errors = []) ?(fail = (0, 0)) ?(failing = []) ?(vt = ignore) ~work
    digest =
  {
    o_work = work;
    o_digest = digest;
    o_errors = errors;
    o_vt = vt;
    o_fail = fail;
    o_failing = failing;
  }

(* Count the per-layer work one simulator did, from its metrics fold. *)
let count_sim sim =
  let m = Sim.metrics sim in
  Ledger.count "sim.invocations" (Sim.invocations sim);
  Ledger.count "sim.reboots" (Metrics.reboots m);
  Ledger.count "stub.walks" (Metrics.walks m)

(* ---------- campaign: Table II chunks ---------- *)

(* Campaign.run's defaults; the per-service budget is what the Table II
   campaign at benchmark scale asks of each service *)
let period_ns = 20_000
let chunk_iters = 400
let per_service = 350_000
let ifaces = Array.of_list Workloads.all_ifaces

type chunk = { c_iface : string; c_seed : int; c_budget : int }

(* [|injected; undetected; segfault; propagated; failstop + hang; reboots|]:
   what both Campaign.run_chunk's row and the metrics fold of the same
   run report (recovered + other always equals failstop + hang) *)
let row_counts (r : Campaign.row) =
  [|
    r.r_injected;
    r.r_undetected;
    r.r_segfault;
    r.r_propagated;
    r.r_recovered + r.r_other;
    r.r_reboots;
  |]

(* Campaign.run_chunk called layer by layer, so that each call can be
   timed on its own. *)
let decomposed_chunk ?on_event c =
  let sys =
    Ledger.span "sysbuild.build" (fun () -> Sysbuild.build ~seed:c.c_seed mode)
  in
  let sim = sys.Sysbuild.sys_sim in
  Option.iter (Sink.subscribe (Sim.obs sim)) on_event;
  let check =
    Ledger.span "workloads.setup" (fun () ->
        Workloads.setup sys ~iface:c.c_iface ~iters:chunk_iters)
  in
  Ledger.span "swifi.injector" (fun () ->
      Injector.install sim
        (Injector.create
           ~target:(Sysbuild.cid_of_iface sys c.c_iface)
           ~period_ns ~max_injections:c.c_budget
           ~rng:(Rng.create (c.c_seed * 7919))
           ()));
  let result = Ledger.span "sim.run" (fun () -> Sim.run sim) in
  (* Campaign.run_chunk checks postconditions only after a completed
     run; the check of any other run is timed after the op *)
  let completed = result = Sim.Completed in
  if completed then ignore (Ledger.span "workloads.check" check);
  let m = Sim.metrics sim in
  let counts =
    Ledger.span "metrics.fold" (fun () ->
        let n = Metrics.outcome_count m in
        let h = Hist.create () in
        Hist.merge h (Metrics.first_access_hist m);
        [|
          Metrics.injections m;
          n "undetected";
          n "segfault";
          n "propagated";
          n "failstop" + n "hang";
          Metrics.reboots m;
        |])
  in
  count_sim sim;
  Ledger.count "swifi.chunks" 1;
  Ledger.count "swifi.injections" counts.(0);
  Ledger.count "work" counts.(0);
  let reprobe_check () =
    if not completed then
      ignore (Ledger.reprobe ~parent:"sim.run" "workloads.check" check)
  in
  (counts, reprobe_check)

(* The sgtrace side of a traced campaign: render and re-read every
   event, check the chunk's stream, stitch and profile its episodes. *)
let obs_side stream =
  let lines =
    Ledger.span "jsonl.render" (fun () -> List.map Jsonl.to_string stream)
  in
  let parsed =
    Ledger.span "jsonl.parse" (fun () -> List.map Jsonl.of_string lines)
  in
  let violations =
    Ledger.span "check.run" (fun () -> Check.run ~completed:false parsed)
  in
  let episodes =
    Ledger.span "episode.of_events" (fun () -> Episode.of_events parsed)
  in
  Ledger.span "profile.summarize" (fun () ->
      ignore (Profile.attribution episodes);
      ignore (Profile.summarize episodes));
  let n = List.length stream in
  List.iter (fun c -> Ledger.count c n) [ "jsonl.events"; "check.events"; "sink.events" ];
  (parsed, violations, episodes)

let campaign ~with_obs ~seed ~ops =
  (* Campaign.run's arithmetic per service: consecutive chunk seeds from
     [seed], each armed with what its service's budget still allows. A
     budget is fixed the first time its op runs, so later passes repeat
     the op exactly. *)
  let budgets = Array.make ops (-1) in
  let charged = Array.make ops false in
  let used = Hashtbl.create 6 in
  let used_by iface = Option.value ~default:0 (Hashtbl.find_opt used iface) in
  let iface_of k = ifaces.(k mod Array.length ifaces) in
  let chunk k =
    if budgets.(k) < 0 then budgets.(k) <- per_service - used_by (iface_of k);
    {
      c_iface = iface_of k;
      c_seed = seed + (k / Array.length ifaces);
      c_budget = budgets.(k);
    }
  in
  let note k injected =
    if not charged.(k) then begin
      charged.(k) <- true;
      Hashtbl.replace used (iface_of k) (injected + used_by (iface_of k))
    end
  in
  let judge_obs k stream (parsed, violations, episodes) =
    let errors =
      (if parsed = stream then []
       else [ Printf.sprintf "op %d: Jsonl round trip changed the stream" k ])
      @ List.map
          (fun v ->
            Printf.sprintf "op %d: check violation [%s] %s" k v.Check.rule
              v.Check.msg)
          violations
    in
    (errors, [| List.length stream; List.length episodes |])
  in
  let run ~traced k =
    let c = chunk k in
    let events = ref [] in
    let on_event = if with_obs then Some (fun e -> events := e :: !events) else None in
    if traced then begin
      let counts, reprobe_check = decomposed_chunk ?on_event c in
      let obs = if with_obs then Some (obs_side (List.rev !events)) else None in
      fun () ->
        reprobe_check ();
        note k counts.(0);
        match obs with
        | None -> outcome ~work:counts.(0) counts
        | Some o ->
            let stream = List.rev !events in
            (* what emitting this stream into a fresh sink with one
               collecting subscriber costs, per event *)
            Ledger.reprobe ~parent:"sim.run" "sink.emit" (fun () ->
                let s = Sink.create () in
                let n = ref 0 in
                Sink.subscribe s (fun _ -> incr n);
                List.iter
                  (fun e -> Sink.emit s ~at_ns:e.Event.at_ns ~tid:e.Event.tid e.Event.kind)
                  stream);
            Ledger.count "sink.emit.events" (List.length stream);
            let errors, d = judge_obs k stream o in
            outcome ~errors ~work:counts.(0) (Array.append counts d)
    end
    else begin
      let _, row =
        Campaign.run_chunk ?on_event ~mode ~iface:c.c_iface ~seed:c.c_seed ~period_ns
          ~iters:chunk_iters ~budget:c.c_budget ~cmon_period_ns:None ()
      in
      let obs = if with_obs then Some (obs_side (List.rev !events)) else None in
      fun () ->
        note k row.r_injected;
        let activated = row.r_injected - row.r_undetected in
        let unrecovered = activated - row.r_recovered in
        let counts = row_counts row in
        let errors, digest =
          match obs with
          | None -> ([], counts)
          | Some o ->
              let errors, d = judge_obs k (List.rev !events) o in
              (errors, Array.append counts d)
        in
        outcome ~errors ~work:row.r_injected
          ~vt:(fun h -> Hist.merge h row.r_first_access)
          ~fail:(unrecovered, activated) digest
    end
  in
  {
    unit_name = "injection";
    ops;
    vt_hist = (fun () -> Hist.create ());
    run;
    extra = (fun () -> []);
  }

(* ---------- dst: generated scenarios under the full oracle ---------- *)

let dst ~seed ~ops =
  let judge s sc (o : Exec.outcome) =
    if Ledger.is_on () then begin
      (* Exec.run is opaque from outside: re-invoke the layers it calls
         on this op's own inputs to estimate what they cost inside it *)
      Ledger.reprobe ~parent:"exec.run" "sysbuild.build" (fun () ->
          ignore (Sysbuild.build ~seed:sc.Exec.sc_seed mode));
      Ledger.reprobe ~parent:"exec.run" "check.run" (fun () ->
          ignore
            (Check.run ~completed:(o.Exec.oc_result = Sim.Completed) o.Exec.oc_stream));
      Ledger.reprobe ~parent:"exec.run" "episode.of_events"
        (fun () -> ignore (Episode.of_events o.Exec.oc_stream));
      let count_kind = function
        | Event.Span_begin _ -> Ledger.count "sim.invocations" 1
        | Event.Reboot _ -> Ledger.count "sim.reboots" 1
        | Event.Walk_begin _ -> Ledger.count "stub.walks" 1
        | _ -> ()
      in
      List.iter (fun e -> count_kind e.Event.kind) o.Exec.oc_stream;
      List.iter
        (fun c -> Ledger.count c o.Exec.oc_events)
        [ "sink.events"; "check.events" ];
      Ledger.count "work" 1
    end;
    let cls = Exec.verdict_class o.Exec.oc_verdict in
    let vt h =
      List.iter
        (fun ep -> if ep.Episode.ep_complete then Hist.add h (Episode.span_ns ep))
        o.Exec.oc_episodes
    in
    let detail = String.concat "; " (Exec.verdict_detail o.Exec.oc_verdict) in
    let failed = cls <> "pass" in
    outcome ~vt
      ~errors:
        (if cls = "over-bound" then
           [ Printf.sprintf "seed %d: over-bound verdict: %s" s detail ]
         else [])
      ~fail:((if failed then 1 else 0), 1)
      ~failing:(if failed then [ Printf.sprintf "seed %d %s: %s" s cls detail ] else [])
      ~work:1
      [|
        Hashtbl.hash cls;
        o.Exec.oc_events;
        List.length o.Exec.oc_episodes;
        o.Exec.oc_storage_faults;
      |]
  in
  let run ~traced k =
    let s = seed + k in
    if traced then begin
      let sc = Ledger.span "dst.gen" (fun () -> Dst.scenario_of_seed s) in
      let o = Ledger.span "exec.run" (fun () -> Exec.run sc) in
      fun () -> judge s sc o
    end
    else
      let r = Dst.run_seed s in
      fun () ->
        match r.Dst.rr_result with
        | Ok o -> judge s r.Dst.rr_scenario o
        | Error msg ->
            outcome ~errors:[ Printf.sprintf "seed %d: %s" s msg ] ~work:1 [||]
  in
  {
    unit_name = "scenario";
    ops;
    vt_hist = fine_hist;
    run;
    extra = (fun () -> []);
  }

(* ---------- web: open-loop requests under faults ---------- *)

(* about half the ~12.5k req/s the simulated server sustains, so the
   queue stays short and latency is set by service and recovery *)
let web_rate = 6_000.0
let web_requests = 250
let web_fault_period_ns = 1_000_000

let web_cfg ~requests lg_seed =
  {
    Loadgen.default with
    Loadgen.lg_arrival = Loadgen.Poisson { rate_rps = web_rate };
    lg_requests = requests;
    lg_workers = 10;
    lg_queue_cap = 200;
    lg_seed;
  }

(* Request [i] in arrival order was due at the generator's start plus
   the first [i+1] gaps of its arrival stream; it arrives when the
   generator thread gets to run, which may be later. *)
let due_times cfg (res : Loadgen.result) =
  let gaps =
    Loadgen.interarrivals cfg.Loadgen.lg_arrival ~seed:cfg.Loadgen.lg_seed
      ~n:cfg.Loadgen.lg_requests
  in
  let due = Array.make (Array.length gaps) 0 in
  let t = ref res.Loadgen.lr_start_ns in
  Array.iteri
    (fun i g ->
      t := !t + g;
      due.(i) <- !t)
    gaps;
  due

let web ~seed ~ops =
  let late = fine_hist () in
  let arrivals = ref 0 and window_ns = ref 0 in
  let judge k cfg (res : Loadgen.result) (join : Reqjoin.t) reboots episodes =
    let requests = cfg.Loadgen.lg_requests in
    let unserved = join.tj_errors + join.tj_dropped + join.tj_failed in
    let errors = ref [] in
    let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
    if join.tj_offered <> join.tj_served + unserved then
      error "op %d: offered %d <> served %d + errors %d + dropped %d + failed %d" k
        join.tj_offered join.tj_served join.tj_errors join.tj_dropped join.tj_failed;
    if join.tj_offered <> requests then
      error "op %d: offered %d of %d scheduled requests" k join.tj_offered requests;
    let reqs =
      List.stable_sort
        (fun a b -> compare a.Reqjoin.rq_arrival_ns b.Reqjoin.rq_arrival_ns)
        res.Loadgen.lr_reqs
      |> Array.of_list
    in
    let due = due_times cfg res in
    let served_from_due = ref [] in
    if Array.length reqs = Array.length due then begin
      Array.iteri
        (fun i r ->
          let lateness = r.Reqjoin.rq_arrival_ns - due.(i) in
          if lateness < 0 then
            error "op %d: request %d arrived %d ns before it was due" k i (-lateness);
          Hist.add late lateness;
          if r.Reqjoin.rq_outcome = "ok" then
            served_from_due := (r.Reqjoin.rq_finish_ns - due.(i)) :: !served_from_due)
        reqs;
      arrivals := !arrivals + Array.length reqs - 1;
      window_ns :=
        !window_ns
        + reqs.(Array.length reqs - 1).Reqjoin.rq_arrival_ns
        - reqs.(0).Reqjoin.rq_arrival_ns
    end;
    outcome ~errors:(List.rev !errors)
      ~vt:(fun h -> List.iter (Hist.add h) !served_from_due)
      ~fail:(unserved, join.tj_offered)
      ~failing:
        (if unserved > 0 then
           [ Printf.sprintf "lg_seed %d: %d of %d requests unserved" cfg.lg_seed unserved
               join.tj_offered ]
         else [])
      ~work:requests
      [|
        join.tj_offered;
        join.tj_served;
        join.tj_errors;
        join.tj_dropped;
        join.tj_failed;
        res.Loadgen.lr_faults;
        reboots;
        List.length episodes;
      |]
  in
  (* the calls Loadgen.run_open makes, one by one *)
  let run ~traced:_ k =
    let cfg = web_cfg ~requests:web_requests (seed + k) in
    let sys =
      Ledger.span "sysbuild.build" (fun () -> Sysbuild.build ~seed:cfg.lg_seed mode)
    in
    let server = Ledger.span "server.install" (fun () -> Server.install sys) in
    let res =
      Ledger.span "loadgen.run" (fun () ->
          Loadgen.run ~fault_period_ns:web_fault_period_ns cfg sys server)
    in
    let sim = sys.Sysbuild.sys_sim in
    let episodes =
      Ledger.span "episode.of_events" (fun () -> Episode.of_events (Sink.events (Sim.obs sim)))
    in
    let join =
      Ledger.span "reqjoin.join" (fun () -> Reqjoin.join ~episodes res.Loadgen.lr_reqs)
    in
    count_sim sim;
    List.iter (fun c -> Ledger.count c cfg.lg_requests) [ "work"; "loadgen.reqs"; "reqjoin.reqs" ];
    let reboots = Sim.reboots sim in
    fun () -> judge k cfg res join reboots episodes
  in
  let extra () =
    if Hist.n late = 0 then []
    else
      [
        ("loadgen.late_p50_ns", float_of_int (Hist.percentile late 0.50));
        ("loadgen.late_p99_ns", float_of_int (Hist.percentile late 0.99));
        ( "loadgen.offered_share",
          if !window_ns = 0 then 0.0
          else float_of_int !arrivals *. 1e9 /. float_of_int !window_ns /. web_rate );
      ]
  in
  { unit_name = "request"; ops; vt_hist = fine_hist; run; extra }

let make name ~seed ~ops =
  match name with
  | "campaign" -> campaign ~with_obs:false ~seed ~ops
  | "campaign-trace" -> campaign ~with_obs:true ~seed ~ops
  | "dst" -> dst ~seed ~ops
  | "web" -> web ~seed ~ops
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---------- layer probes run by every traced run ---------- *)

let setup_probes () =
  let reps = 5 in
  List.iter
    (fun i ->
      let src = Compiler.builtin_source i in
      for _ = 1 to reps do
        Ledger.probe ("compiler.compile." ^ i) (fun () ->
            ignore (Compiler.compile ~name:i src))
      done)
    Compiler.builtin_names;
  let lookups = 10_000 in
  Ledger.probe "compiler.builtin" (fun () ->
      for _ = 1 to lookups do
        ignore (Compiler.builtin "fs")
      done;
      Ledger.count "compiler.builtin.calls" lookups);
  let arts = List.map Compiler.builtin Compiler.builtin_names in
  for _ = 1 to reps do
    Ledger.probe "wcr.analyze" (fun () ->
        ignore (Sg_analysis.Wcr.analyze arts))
  done

let stub_modes =
  [
    ("base", Sysbuild.Base);
    ("c3", Sysbuild.Stubbed Sysbuild.c3_stubset);
    ("superglue", Superglue.Stubset.mode);
    ("superglue-gen", Sg_genstubs.Gen_stubset.mode);
  ]

(* Backends are timed in interleaved rounds and each keeps its fastest
   slice, so a host slowdown during the probe cannot favour one of them. *)
let stub_probes ~seed =
  let slice (name, m) =
    let cfg = web_cfg ~requests:300 seed in
    let sys = Sysbuild.build ~seed m in
    let server = Server.install sys in
    let t0 = Ledger.now_ns () in
    Ledger.probe ("stub.slice." ^ name) (fun () -> ignore (Loadgen.run cfg sys server));
    float_of_int (Ledger.now_ns () - t0)
    /. float_of_int (max 1 (Sim.invocations sys.Sysbuild.sys_sim))
  in
  let rounds = List.init 7 (fun _ -> List.map slice stub_modes) in
  let fastest i = List.fold_left (fun acc r -> Float.min acc (List.nth r i)) infinity rounds in
  let base = fastest 0 in
  List.mapi
    (fun i (name, _) ->
      ("stub.ns_per_inv." ^ name, if i = 0 then base else fastest i -. base))
    stub_modes
