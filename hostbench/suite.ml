(* The host-time benchmark suite: one workload per process.

     suite.exe setup --workload W --seed N [--ops N]
     suite.exe run --workload W --seed N --seconds S --trace 0|1
                   [--ops N] [--json FILE] [--spans FILE]

   [setup] does exactly the set-up [run] does before its first timed op
   and prints the host monotonic clock when it is done, so a parent that
   noted the clock before spawning it gets the time from process start
   to first op; it then prints the factor (Calib) by which the parent
   scales that time to the nominal host. [run] measures, checks every op's outputs outside the
   timed region, prints its metrics by name and unit (host times scaled
   to the nominal host, see Calib), and ends with one
   JSON line: {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones (set-up time is the
   parent's to measure); with --trace 1 they are the per-layer ones,
   from a run whose first half is untraced and second half traced. The
   exit code is 1 when any check failed. *)

module Hist = Sg_obs.Hist

(* ---------- JSON output ---------- *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec render b = function
  | Num f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Num _ -> Buffer.add_string b "null"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Str s -> Buffer.add_string b ("\"" ^ Sg_obs.Jsonl.escape s ^ "\"")
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          render b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          render b (Str k);
          Buffer.add_char b ':';
          render b v)
        l;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 1024 in
  render b j;
  Buffer.contents b

(* ---------- measuring ---------- *)

type phase = {
  mutable durations : int list;  (** host ns per op *)
  mutable samples : int list;  (** reference-kernel ns, sampled through the phase *)
  mutable work : int;
  mutable ops_run : int;
  mutable wall_ns : int;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable first_pass_heap_mb : float;
}

type state = {
  w : Ops.t;
  first : int array option array;  (** each op's first judged digest *)
  mutable next : int;  (** next op of the cycle *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** newest first *)
  vt : Hist.t;
  mutable fail_num : int;
  mutable fail_den : int;
  mutable failing : string list;  (** newest first *)
}

let error st msg = st.errors <- msg :: st.errors

(* Run op [k], take its time, then judge it. The first judged outcome of
   each op feeds the deterministic metrics; every later run of the op,
   traced or not, must reproduce its digest. *)
let run_op st ph ~traced k =
  let t0 = Ledger.now_ns () in
  let judge = Ledger.op k (fun () -> st.w.Ops.run ~traced k) in
  let dt = Ledger.now_ns () - t0 in
  let o = judge () in
  ph.durations <- dt :: ph.durations;
  ph.work <- ph.work + o.Ops.o_work;
  ph.ops_run <- ph.ops_run + 1;
  st.attempted <- st.attempted + 1;
  (match st.first.(k) with
  | None ->
      st.first.(k) <- Some o.Ops.o_digest;
      o.Ops.o_vt st.vt;
      let f, a = o.Ops.o_fail in
      st.fail_num <- st.fail_num + f;
      st.fail_den <- st.fail_den + a;
      st.failing <- List.rev_append o.Ops.o_failing st.failing
  | Some d ->
      if d <> o.Ops.o_digest then
        error st
          (Printf.sprintf "op %d: outputs differ from its first run (%s)" k
             (if traced then "traced" else "untraced")));
  if o.Ops.o_errors <> [] then begin
    st.failed <- st.failed + 1;
    List.iter (error st) o.Ops.o_errors
  end

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* a reference-kernel sample per this much op time: about 2% overhead *)
let sample_every_ns = 100_000_000

(* Whole passes over the op set, at least one, until [seconds] have
   passed: every run of one seed weighs the same inputs equally,
   whatever its speed. The first pass takes its one kernel
   sample before its first op, so up to its end every run of a seed
   allocates exactly alike, and the heap peak taken there is the same
   on every run. *)
let measure st ~traced ~seconds =
  let ph =
    {
      durations = [];
      samples = [];
      work = 0;
      ops_run = 0;
      wall_ns = 0;
      minor_words = 0.0;
      major_collections = 0;
      first_pass_heap_mb = 0.0;
    }
  in
  let gc0 = Gc.quick_stat () in
  let start = Ledger.now_ns () in
  let until = start + int_of_float (seconds *. 1e9) in
  let since_sample = ref sample_every_ns in
  while ph.ops_run = 0 || Ledger.now_ns () < until || st.next <> 0 do
    if !since_sample >= sample_every_ns && (ph.samples = [] || ph.ops_run >= st.w.Ops.ops)
    then begin
      ph.samples <- Calib.sample () :: ph.samples;
      since_sample := 0
    end;
    run_op st ph ~traced st.next;
    since_sample := !since_sample + List.hd ph.durations;
    st.next <- (st.next + 1) mod st.w.Ops.ops;
    if ph.ops_run = st.w.Ops.ops then ph.first_pass_heap_mb <- heap_peak_mb ()
  done;
  let gc1 = Gc.quick_stat () in
  ph.wall_ns <- Ledger.now_ns () - start;
  ph.minor_words <- gc1.Gc.minor_words -. gc0.Gc.minor_words;
  ph.major_collections <- gc1.Gc.major_collections - gc0.Gc.major_collections;
  ph

(* each op's fastest host time over the passes of a phase *)
let per_op_fastest ~ops durations =
  let a = Array.of_list (List.rev durations) in
  let passes = Array.length a / ops in
  Array.init ops (fun k ->
      List.fold_left min max_int (List.init passes (fun p -> a.((p * ops) + k))))

(* nearest rank: the smallest sample with at least [p] of all at or below it *)
let rank_percentile a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let raw_rate ph =
  float_of_int ph.work *. 1e9 /. float_of_int (max 1 (List.fold_left ( + ) 0 ph.durations))

(* host times of a phase scaled to the nominal host (see Calib) *)
let factor ph = Calib.factor ph.samples
let rate ph = raw_rate ph /. factor ph

(* ---------- per-layer metrics ---------- *)

(* where a per-layer value comes from: the workload's own traced ops
   first, then probe ops of the other workloads, then the stand-alone
   probes *)
let sources own =
  "own"
  :: List.filter_map
       (fun w -> if w = own then None else Some ("probe:" ^ w))
       Ops.names
  @ [ "probe" ]

(* Host times are scaled like the end-to-end ones, by the traced half's
   factor; the generator's lateness is virtual time and is not. *)
let per_layer ~own ~untraced ~traced ~probe_extra ~stub =
  let f = factor traced in
  let srcs = sources own in
  let tables = List.map (fun s -> (s, Ledger.layers ~source:s)) srcs in
  let layer s n = List.assoc_opt n (List.assoc s tables) in
  let ctr s n = Ledger.counter ~source:s n in
  (* the first source holding any of [names], with that layer *)
  let find names =
    List.find_map
      (fun s -> List.find_map (fun n -> Option.map (fun l -> (s, l)) (layer s n)) names)
      srcs
  in
  let mean_us names =
    match find names with
    | Some (s, l) ->
        (s, f *. float_of_int l.Ledger.l_total_ns /. float_of_int l.Ledger.l_calls /. 1e3)
    | None -> ("none", 0.0)
  in
  let per names denom =
    match find names with
    | Some (s, l) when ctr s denom > 0 ->
        (s, f *. float_of_int l.Ledger.l_total_ns /. float_of_int (ctr s denom))
    | _ -> ("none", 0.0)
  in
  let ratio num denom =
    match List.find_opt (fun s -> ctr s num > 0 && ctr s denom > 0) srcs with
    | Some s -> (s, float_of_int (ctr s num) /. float_of_int (ctr s denom))
    | None -> ("own", 0.0)
  in
  let own_share names =
    match (List.find_map (layer "own") names, layer "own" "op") with
    | Some l, Some op -> ("own", float_of_int l.Ledger.l_self_ns /. float_of_int op.Ledger.l_total_ns)
    | _ -> ("own", 0.0)
  in
  let exec_unattributed () =
    match find [ "exec.run" ] with
    | Some (s, ex) ->
        let inside =
          List.fold_left
            (fun acc n ->
              acc + Option.fold ~none:0 ~some:(fun l -> l.Ledger.l_total_ns) (layer s n))
            0
            [ "sysbuild.build"; "check.run"; "episode.of_events" ]
        in
        ( s,
          f *. float_of_int (ex.Ledger.l_total_ns - inside)
          /. float_of_int ex.Ledger.l_calls /. 1e3 )
    | None -> ("none", 0.0)
  in
  let sim_names = [ "sim.run"; "loadgen.run" ] in
  let extra n = match List.assoc_opt n probe_extra with Some v -> v | None -> ("none", 0.0) in
  let ms (s, us) = (s, us /. 1e3) in
  [
    ("sysbuild.build_us", "us", mean_us [ "sysbuild.build" ]);
    ("sysbuild.build_share", "share", own_share [ "sysbuild.build" ]);
    ("workloads.setup_us", "us", mean_us [ "workloads.setup" ]);
    ("workloads.check_us", "us", mean_us [ "workloads.check" ]);
    ("swifi.inj_per_chunk", "count", ratio "swifi.injections" "swifi.chunks");
    ("sim.run_us", "us", mean_us sim_names);
    ("sim.invocations_per_work", "count", ratio "sim.invocations" "work");
    ("sim.reboots_per_work", "count", ratio "sim.reboots" "work");
    ("sim.ns_per_invocation", "ns", per (sim_names @ [ "exec.run" ]) "sim.invocations");
    ("stub.walks_per_work", "count", ratio "stub.walks" "work");
  ]
  @ List.map (fun (n, v) -> (n, "ns", ("probe", f *. v))) stub
  @ [
      ("sink.events_per_work", "count", ratio "sink.events" "work");
      ("sink.emit_ns", "ns", per [ "sink.emit" ] "sink.emit.events");
      ("check.ns_per_event", "ns", per [ "check.run" ] "check.events");
      ("episode.us_per_op", "us", mean_us [ "episode.of_events" ]);
      ("profile.us_per_op", "us", mean_us [ "profile.summarize" ]);
      ("jsonl.render_ns_per_event", "ns", per [ "jsonl.render" ] "jsonl.events");
      ("jsonl.parse_ns_per_event", "ns", per [ "jsonl.parse" ] "jsonl.events");
      ("reqjoin.ns_per_req", "ns", per [ "reqjoin.join" ] "reqjoin.reqs");
      ("dst.gen_us", "us", mean_us [ "dst.gen" ]);
      ("exec.run_us", "us", mean_us [ "exec.run" ]);
      ("exec.unattributed_us", "us", exec_unattributed ());
      ("loadgen.late_p50_ns", "ns", extra "loadgen.late_p50_ns");
      ("loadgen.late_p99_ns", "ns", extra "loadgen.late_p99_ns");
      ("loadgen.offered_share", "share", extra "loadgen.offered_share");
      ("loadgen.ns_per_req", "ns", per [ "loadgen.run" ] "loadgen.reqs");
      ("server.install_us", "us", mean_us [ "server.install" ]);
    ]
  @ List.map
      (fun i -> ("compiler.compile_us." ^ i, "us", mean_us [ "compiler.compile." ^ i ]))
      Superglue.Compiler.builtin_names
  @ [
      ("compiler.builtin_ns", "ns", per [ "compiler.builtin" ] "compiler.builtin.calls");
      ("wcr.analyze_ms", "ms", ms (mean_us [ "wcr.analyze" ]));
      ( "gc.minor_words_per_work",
        "count",
        ("own", untraced.minor_words /. float_of_int (max 1 untraced.work)) );
      ( "gc.major_collections_per_s",
        "1/s",
        ( "own",
          float_of_int untraced.major_collections *. 1e9
          /. float_of_int (max 1 untraced.wall_ns) ) );
      ( "unattributed_share",
        "share",
        match layer "own" "op" with
        | Some op -> ("own", float_of_int op.Ledger.l_self_ns /. float_of_int op.Ledger.l_total_ns)
        | None -> ("own", 0.0) );
      ("trace_overhead_share", "share", ("own", 1.0 -. (rate traced /. rate untraced)));
    ]

(* ---------- the two commands ---------- *)

let probe_ops = [ ("campaign", 12); ("campaign-trace", 6); ("dst", 20); ("web", 2) ]

let setup ~workload ~seed ~ops =
  Ops.warm_caches ();
  Ops.make workload ~seed ~ops

let cmd_setup ~workload ~seed ~ops =
  ignore (setup ~workload ~seed ~ops);
  let ready = Ledger.now_ns () in
  Printf.printf "ready_ns %d\nhost_factor %.17g\n" ready
    (Calib.factor (List.init 5 (fun _ -> Calib.sample ())))

let print_metric (name, v, unit, note) =
  Printf.printf "  %-28s %16.6g %-6s %s\n" name v unit note

let cmd_run ~workload ~seed ~seconds ~trace ~ops ~json_path ~spans_path =
  let w = setup ~workload ~seed ~ops in
  let st =
    {
      w;
      first = Array.make w.Ops.ops None;
      next = 0;
      attempted = 0;
      failed = 0;
      errors = [];
      vt = w.Ops.vt_hist ();
      fail_num = 0;
      fail_den = 0;
      failing = [];
    }
  in
  let run_seconds = if trace then seconds /. 2.0 else seconds in
  let untraced = measure st ~traced:false ~seconds:run_seconds in
  let layers =
    if not trace then []
    else begin
      Ledger.set_on true;
      let traced = measure st ~traced:true ~seconds:run_seconds in
      (* probe the layers this workload's ops do not call *)
      let probes =
        List.filter_map
          (fun (name, n) ->
            if name = workload then None
            else begin
              let p = Ops.make name ~seed ~ops:n in
              for k = 0 to n - 1 do
                ignore (Ledger.op ~source:("probe:" ^ name) k (fun () -> p.Ops.run ~traced:true k) ())
              done;
              Some (name, p)
            end)
          probe_ops
      in
      Ops.setup_probes ();
      let stub = Ops.stub_probes ~seed in
      Ledger.set_on false;
      let probe_extra =
        let from src (p : Ops.t) = List.map (fun (n, v) -> (n, (src, v))) (p.Ops.extra ()) in
        match from "own" w with
        | [] -> List.concat_map (fun (n, p) -> from ("probe:" ^ n) p) probes
        | own -> own
      in
      Option.iter Ledger.dump spans_path;
      per_layer ~own:workload ~untraced ~traced ~probe_extra ~stub
    end
  in
  let f = factor untraced in
  (* Percentiles over the op set of each op's fastest time across the
     run's passes: a host stall or a GC pause lands on different ops in
     different passes and drops out, while an op that is slow on every
     pass stays slow. work_per_s, from total op time, keeps the stalls. *)
  let fastest = per_op_fastest ~ops:w.Ops.ops untraced.durations in
  Array.sort compare fastest;
  let raw_us p = float_of_int (rank_percentile fastest p) /. 1e3 in
  let n_passes = untraced.ops_run / w.Ops.ops in
  let beyond_p99 = w.Ops.ops - int_of_float (Float.ceil (0.99 *. float_of_int w.Ops.ops)) in
  let host =
    [
      ("work_per_s", rate untraced, "1/s", Printf.sprintf "(%ss per host s)" w.Ops.unit_name);
      ( "op_p50_us",
        f *. raw_us 0.50,
        "us",
        Printf.sprintf "(over %d ops, each its fastest of %d passes)" w.Ops.ops n_passes );
      ("op_p99_us", f *. raw_us 0.99, "us", Printf.sprintf "(%d ops beyond it)" beyond_p99);
    ]
  in
  let heap_peak_mb = untraced.first_pass_heap_mb in
  let fail_share =
    if st.fail_den = 0 then 0.0 else float_of_int st.fail_num /. float_of_int st.fail_den
  in
  let vt_n = Hist.n st.vt in
  let deterministic =
    [
      ("heap_peak_mb", heap_peak_mb, "MB", "(at the end of the first pass)");
      ( "fail_share",
        fail_share,
        "share",
        Printf.sprintf "(%d of %d, first pass)" st.fail_num st.fail_den );
      ("vt_p50_ns", float_of_int (Hist.percentile st.vt 0.50), "ns", Printf.sprintf "(virtual, n=%d)" vt_n);
      ("vt_p99_ns", float_of_int (Hist.percentile st.vt 0.99), "ns", "(virtual)");
    ]
  in
  let correct = st.failed = 0 && st.errors = [] in
  Printf.printf "workload %s seed %d: %d ops in %.2f s untraced (%d per pass, %.2f passes), %d %ss\n"
    workload seed untraced.ops_run
    (float_of_int untraced.wall_ns /. 1e9)
    w.Ops.ops
    (float_of_int untraced.ops_run /. float_of_int w.Ops.ops)
    untraced.work w.Ops.unit_name;
  Printf.printf "  host times scaled by %.4f: reference kernel %d ns here, %.0f ns nominal\n"
    f (Calib.median untraced.samples) Calib.nominal_ns;
  List.iter print_metric (host @ deterministic);
  (match w.Ops.extra () with
  | [] -> ()
  | ex -> List.iter (fun (n, v) -> print_metric (n, v, "", "(virtual, all judged ops)")) ex);
  let failing = List.rev st.failing in
  if failing <> [] then begin
    Printf.printf "first-pass failures (%d, first 5):\n" (List.length failing);
    List.iteri (fun i l -> if i < 5 then Printf.printf "  %s\n" l) failing
  end;
  if layers <> [] then begin
    Printf.printf "per-layer (traced half, %s):\n" workload;
    List.iter
      (fun (name, unit, (src, v)) -> print_metric (name, v, unit, "[" ^ src ^ "]"))
      layers;
    Printf.printf "ledger (own traced ops, self time, unscaled):\n";
    let tbl = Ledger.layers ~source:"own" in
    let op_total =
      match List.assoc_opt "op" tbl with Some l -> l.Ledger.l_total_ns | None -> 1
    in
    List.iter
      (fun (name, l) ->
        Printf.printf "  %-22s %8d calls %12.1f us/call self %6.2f%%\n"
          (if name = "op" then "(unattributed)" else name)
          l.Ledger.l_calls
          (float_of_int l.Ledger.l_self_ns /. float_of_int l.Ledger.l_calls /. 1e3)
          (100.0 *. float_of_int l.Ledger.l_self_ns /. float_of_int (max 1 op_total)))
      tbl
  end;
  let errors = List.rev st.errors in
  if errors <> [] then begin
    Printf.printf "CHECK FAILED (%d):\n" (List.length errors);
    List.iteri (fun i e -> if i < 20 then Printf.printf "  %s\n" e) errors
  end;
  let metric (name, v, unit, _) = (name, Obj [ ("value", Num v); ("unit", Str unit) ]) in
  let metrics =
    if trace then
      List.map (fun (name, unit, (_, v)) -> metric (name, v, unit, "")) layers
    else List.map metric host
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        (to_string
           (Obj
              [
                ("workload", Str workload);
                ("seed", Int seed);
                ("seconds", Num seconds);
                ("trace", Bool trace);
                ("ops_per_pass", Int w.Ops.ops);
                ("ops_run", Int untraced.ops_run);
                ("work_unit", Str w.Ops.unit_name);
                ("correct", Bool correct);
                ("attempted", Int st.attempted);
                ("failed", Int st.failed);
                ("errors", Arr (List.filteri (fun i _ -> i < 20) errors |> List.map (fun e -> Str e)));
                ("metrics", Obj (List.map metric (host @ deterministic)));
                ( "samples",
                  Obj
                    [
                      ("ops", Int untraced.ops_run);
                      ("passes", Int n_passes);
                      ("beyond_p99", Int beyond_p99);
                      ("vt", Int vt_n);
                    ] );
                ( "raw",
                  Obj
                    [
                      ("work_per_s", Num (raw_rate untraced));
                      ("op_p50_us", Num (raw_us 0.50));
                      ("op_p99_us", Num (raw_us 0.99));
                      ("host_factor", Num f);
                      ("reference_ns", Int (Calib.median untraced.samples));
                    ] );
                ("failing", Arr (List.map (fun l -> Str l) failing));
                ( "per_layer",
                  Obj
                    (List.map
                       (fun (name, unit, (src, v)) ->
                         ( name,
                           Obj [ ("value", Num v); ("unit", Str unit); ("source", Str src) ] ))
                       layers) );
              ]));
      output_char oc '\n';
      close_out oc)
    json_path;
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool correct);
            ("attempted", Int st.attempted);
            ("failed", Int st.failed);
            ("metrics", Obj metrics);
          ]));
  exit (if correct then 0 else 1)

let () =
  let usage =
    "suite.exe (setup|run) --workload W --seed N [--seconds S] [--trace 0|1] [--ops N] \
     [--json FILE] [--spans FILE]"
  in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let ops = ref 0 and json_path = ref None and spans_path = ref None in
  let cmd = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  campaign, campaign-trace, dst or web");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--ops", Arg.Set_int ops, "N  ops per pass (default: the benchmark's size)");
      ("--json", Arg.String (fun p -> json_path := Some p), "FILE  full report");
      ("--spans", Arg.String (fun p -> spans_path := Some p), "FILE  traced spans, JSON lines");
    ]
    (fun a -> if !cmd = "" then cmd := a else raise (Arg.Bad ("unexpected " ^ a)))
    usage;
  if not (List.mem !workload Ops.names) then begin
    prerr_endline ("suite: unknown workload " ^ !workload ^ "\n" ^ usage);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "suite: --trace takes 0 or 1";
    exit 2
  end;
  let ops = if !ops > 0 then !ops else Ops.default_ops !workload in
  match !cmd with
  | "setup" -> cmd_setup ~workload:!workload ~seed:!seed ~ops
  | "run" ->
      cmd_run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~ops
        ~json_path:!json_path ~spans_path:!spans_path
  | c ->
      prerr_endline ("suite: unknown command " ^ c ^ "\n" ^ usage);
      exit 2
