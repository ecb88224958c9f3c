(* Tests for the SWIFI injector and campaign driver: determinism,
   accounting invariants, and statistical agreement with the paper's
   Table II bands. *)

module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Injector = Sg_swifi.Injector
module Campaign = Sg_swifi.Campaign
module Rng = Sg_util.Rng
module Event = Sg_obs.Event
module Hist = Sg_obs.Hist
module Metrics = Sg_obs.Metrics

(* The functions of the [Inject] events a run's sink kept: with the
   sink's default retention, every injection's one record. *)
let injected_fns sim =
  List.filter_map
    (fun (e : Event.t) ->
      match e.Event.kind with Event.Inject { fn; _ } -> Some fn | _ -> None)
    (Sg_obs.Sink.events (Sim.obs sim))

let test_injector_counts () =
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let sim = sys.Sysbuild.sys_sim in
  let _check = Workloads.setup sys ~iface:"fs" ~iters:300 in
  let inj =
    Injector.create ~target:sys.Sysbuild.sys_services.fs ~period_ns:15_000
      ~max_injections:40 ~rng:(Rng.create 5) ()
  in
  Injector.install sim inj;
  ignore (Sim.run sim);
  let m = Sim.metrics sim in
  let total =
    List.fold_left
      (fun acc o -> acc + Metrics.outcome_count m (Injector.outcome_to_string o))
      0
      [
        Injector.O_undetected; Injector.O_failstop; Injector.O_segfault;
        Injector.O_propagated; Injector.O_hang;
      ]
  in
  Alcotest.(check bool) "faults injected" true (Injector.injected inj > 0);
  Alcotest.(check int) "outcomes sum to injections" (Injector.injected inj) total;
  Alcotest.(check int) "metrics count every injection" (Injector.injected inj)
    (Metrics.injections m);
  Alcotest.(check int) "one Inject event per injection" (Injector.injected inj)
    (List.length (injected_fns sim));
  Alcotest.(check bool) "respects the budget" true (Injector.injected inj <= 40)

let test_injector_only_hits_target () =
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let sim = sys.Sysbuild.sys_sim in
  let _check = Workloads.setup sys ~iface:"lock" ~iters:200 in
  let inj =
    Injector.create ~target:sys.Sysbuild.sys_services.lock ~period_ns:10_000
      ~max_injections:30 ~rng:(Rng.create 9) ()
  in
  Injector.install sim inj;
  ignore (Sim.run sim);
  let fns = injected_fns sim in
  Alcotest.(check int) "one Inject event per injection" (Injector.injected inj)
    (List.length fns);
  Alcotest.(check bool) "faults injected" true (fns <> []);
  List.iter
    (fun fn ->
      if not (String.length fn > 5 && String.sub fn 0 5 = "lock_") then
        Alcotest.failf "injected during foreign dispatch %s" fn)
    fns

let test_campaign_deterministic () =
  let run () =
    Campaign.run ~seed:3 ~mode:Superglue.Stubset.mode ~iface:"lock"
      ~injections:80 ()
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same campaign" true (a = b)

let test_campaign_accounting () =
  List.iter
    (fun iface ->
      let r =
        Campaign.run ~mode:Superglue.Stubset.mode ~iface ~injections:150 ()
      in
      Alcotest.(check int) "injected exactly" 150 r.Campaign.r_injected;
      let accounted =
        r.Campaign.r_recovered + r.Campaign.r_segfault + r.Campaign.r_propagated
        + r.Campaign.r_other + r.Campaign.r_undetected
      in
      Alcotest.(check int)
        (iface ^ ": every fault accounted for")
        r.Campaign.r_injected accounted)
    Workloads.all_ifaces

(* Statistical reproduction: each service's 500-fault campaign must land
   within generous bands of the paper's Table II. *)
let test_campaign_matches_paper iface () =
  let r = Campaign.run ~mode:Superglue.Stubset.mode ~iface ~injections:500 () in
  let p =
    List.find (fun p -> p.Sg_harness.Paper.p_iface = iface) Sg_harness.Paper.table2
  in
  let near what got want slack =
    if abs (got - want) > slack then
      Alcotest.failf "%s %s: measured %d, paper %d (slack %d)" iface what got
        want slack
  in
  near "recovered" r.Campaign.r_recovered p.Sg_harness.Paper.p_recovered 25;
  near "segfault" r.Campaign.r_segfault p.Sg_harness.Paper.p_segfault 15;
  near "undetected" r.Campaign.r_undetected p.Sg_harness.Paper.p_undetected 17;
  let succ = 100.0 *. Campaign.success_rate r in
  if abs_float (succ -. p.Sg_harness.Paper.p_success_pct) > 5.0 then
    Alcotest.failf "%s success rate: %.2f%% vs paper %.2f%%" iface succ
      p.Sg_harness.Paper.p_success_pct

(* Satellite property: the parallel driver is a pure optimization. For
   any (seed, injections) the row, the on_chunk event streams and the
   on_episodes streams must be identical at every jobs — including the
   small-injection regime where the budget binds mid-chunk and the
   merge must re-run the final chunk. The batch size is derived from
   jobs and the injection budget, so the small budgets here (10-60
   injections over 2-4 domains) also vary it. *)
let pardriver_observed ~seed ~injections ~jobs =
  let chunks = ref [] in
  let eps = ref [] in
  let row =
    Sg_swifi.Pardriver.run ~seed ~jobs ~mode:Superglue.Stubset.mode
      ~iface:"lock" ~injections
      ~on_chunk:(fun ~seed evs -> chunks := (seed, evs) :: !chunks)
      ~on_episodes:(fun ~seed eps' -> eps := (seed, eps') :: !eps)
      ()
  in
  (row, List.rev !chunks, List.rev !eps)

let prop_pardriver_invariant =
  QCheck.Test.make
    ~name:"Pardriver.run invariant under jobs/budget" ~count:12
    QCheck.(triple (int_bound 1000) (int_range 10 60) (int_range 2 4))
    (fun (seed, injections, jobs) ->
      pardriver_observed ~seed ~injections ~jobs:1
      = pardriver_observed ~seed ~injections ~jobs)

let test_pardriver_failure_path () =
  (* an unknown interface must raise in the calling domain — with every
     worker domain joined, so the suite keeps running normally after *)
  let boom () =
    ignore
      (Sg_swifi.Pardriver.run ~jobs:4 ~mode:Superglue.Stubset.mode
         ~iface:"nonesuch" ~injections:200 ())
  in
  (match boom () with
  | () -> Alcotest.fail "expected an exception for an unknown iface"
  | exception _ -> ());
  let r =
    Sg_swifi.Pardriver.run ~jobs:4 ~mode:Superglue.Stubset.mode ~iface:"lock"
      ~injections:60 ()
  in
  Alcotest.(check int) "driver still works after the failure" 60
    r.Campaign.r_injected

let test_c3_mode_also_recovers () =
  let r =
    Campaign.run
      ~mode:(Sysbuild.Stubbed Sysbuild.c3_stubset)
      ~iface:"fs" ~injections:200 ()
  in
  Alcotest.(check bool) "c3 recovers the bulk" true
    (Campaign.success_rate r > 0.85)

let test_base_mode_recovers_nothing () =
  let r = Campaign.run ~mode:Sysbuild.Base ~iface:"fs" ~injections:100 () in
  Alcotest.(check int) "no recovery without stubs" 0 r.Campaign.r_recovered

(* A chunk's row against the summary of every event the chunk emitted:
   the counts the row reads from the simulator's live metrics fold are
   the ones an offline fold of the whole stream finds. The C'MON chunk
   moves hangs into the recovered column, so the columns are compared
   as failstop + hang = recovered + other. *)
let test_row_matches_stream () =
  List.iter
    (fun (iface, cmon_period_ns) ->
      let events = ref [] in
      let _, r =
        Campaign.run_chunk
          ~on_event:(fun e -> events := e :: !events)
          ~mode:Superglue.Stubset.mode ~iface ~seed:5 ~period_ns:20_000
          ~iters:400 ~budget:350_000 ~cmon_period_ns ()
      in
      let m = (Metrics.summary (List.rev !events)).Metrics.metrics in
      let n = Metrics.outcome_count m in
      let hist h =
        (Hist.n h, Hist.sum h, Hist.min_value h, Hist.max_value h, Hist.buckets_list h)
      in
      Alcotest.(check bool) (iface ^ ": faults injected") true (r.Campaign.r_injected > 0);
      Alcotest.(check (list int))
        (iface ^ ": injected, undetected, segfault, propagated, failstop + hang, reboots")
        [
          Metrics.injections m; n "undetected"; n "segfault"; n "propagated";
          n "failstop" + n "hang"; Metrics.reboots m;
        ]
        [
          r.Campaign.r_injected; r.Campaign.r_undetected; r.Campaign.r_segfault;
          r.Campaign.r_propagated; r.Campaign.r_recovered + r.Campaign.r_other;
          r.Campaign.r_reboots;
        ];
      Alcotest.(check bool)
        (iface ^ ": first-access histogram")
        true
        (hist (Metrics.first_access_hist m) = hist r.Campaign.r_first_access))
    (("sched", Some 5_000) :: List.map (fun i -> (i, None)) Workloads.all_ifaces)

(* Minor words per injection over one campaign chunk per service, as
   [Campaign.run] cuts them (400 iterations, a fault every 20 us).
   Minor words do not depend on host speed; the ceiling sits at what
   the chunks allocate now. *)
let test_injection_budget () =
  let chunk iface =
    Campaign.run_chunk ~mode:Superglue.Stubset.mode ~iface ~seed:5 ~period_ns:20_000
      ~iters:400 ~budget:350_000 ~cmon_period_ns:None ()
  in
  (* the first chunk also fills the compiled-interface caches *)
  ignore (chunk "lock");
  let before = Gc.minor_words () in
  let injected = List.fold_left (fun acc i -> acc + fst (chunk i)) 0 Workloads.all_ifaces in
  let words = (Gc.minor_words () -. before) /. float_of_int injected in
  Alcotest.(check bool) "faults injected" true (injected > 0);
  let ceiling = 619. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per injection, ceiling %.0f" words ceiling)
    true (words <= ceiling)

let () =
  Alcotest.run "sg_swifi"
    [
      ( "injector",
        [
          Alcotest.test_case "outcome accounting" `Quick test_injector_counts;
          Alcotest.test_case "targets only the victim" `Quick test_injector_only_hits_target;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "accounting" `Quick test_campaign_accounting;
          Alcotest.test_case "row matches its stream" `Quick test_row_matches_stream;
          Alcotest.test_case "c3 recovers" `Quick test_c3_mode_also_recovers;
          Alcotest.test_case "base does not recover" `Quick test_base_mode_recovers_nothing;
        ] );
      ( "allocation",
        [ Alcotest.test_case "one chunk per service" `Quick test_injection_budget ] );
      ( "pardriver",
        [
          QCheck_alcotest.to_alcotest prop_pardriver_invariant;
          Alcotest.test_case "failure path joins workers" `Quick
            test_pardriver_failure_path;
        ] );
      ( "paper-bands",
        List.map
          (fun iface ->
            Alcotest.test_case
              (iface ^ " within Table II bands")
              `Slow
              (test_campaign_matches_paper iface))
          Workloads.all_ifaces );
    ]
