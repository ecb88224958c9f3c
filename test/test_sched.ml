(* Golden-trace scheduler determinism: the dispatcher's thread order
   on raw fiber workloads and full component systems under crash storms
   is pinned to digests recorded from the earlier list-scan reference
   dispatcher (which the indexed run queues matched bit for bit) — and
   the parallel campaign driver must produce the same row as the
   sequential one. *)

open Sg_os
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Campaign = Sg_swifi.Campaign
module Pardriver = Sg_swifi.Pardriver

let md5 s = Digest.to_hex (Digest.string s)

let trivial_spec =
  {
    Sim.sc_name = "app";
    sc_image_kb = 16;
    sc_init = (fun _ _ -> ());
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch = (fun _ _ _ _ -> Ok Comp.VUnit);
    sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
    sc_usage = (fun _ -> None);
  }

(* a scheduling-heavy fiber mix: priority bands, yields, timed sleeps,
   cross-thread wakeups and mid-run spawns; each fiber records
   (tid, now) at every step, which is exactly the dispatch sequence *)
let dispatch_trace () =
  let sim = Sim.create () in
  let app = Sim.register sim trivial_spec in
  let trace = ref [] in
  let step sim = trace := (Sim.current_tid sim, Sim.now sim) :: !trace in
  let blocked_tid = ref (-1) in
  let _ =
    Sim.spawn sim ~prio:5 ~name:"blocker" ~home:app (fun sim ->
        blocked_tid := Sim.current_tid sim;
        step sim;
        Sim.block sim;
        step sim;
        Sim.block sim;
        step sim)
  in
  for i = 0 to 15 do
    ignore
      (Sim.spawn sim ~prio:(i mod 4)
         ~name:(Printf.sprintf "w%d" i)
         ~home:app
         (fun sim ->
           for k = 1 to 12 do
             step sim;
             if k mod 5 = 0 then Sim.sleep_until sim (Sim.now sim + 700)
             else if k mod 7 = 0 then ignore (Sim.wakeup sim !blocked_tid)
             else Sim.yield sim
           done;
           if Sim.current_tid sim mod 6 = 0 then
             ignore
               (Sim.spawn sim ~prio:2 ~name:"late" ~home:app (fun sim ->
                    step sim;
                    Sim.yield sim;
                    step sim))))
  done;
  let _ =
    Sim.spawn sim ~prio:9 ~name:"waker" ~home:app (fun sim ->
        for _ = 1 to 4 do
          step sim;
          ignore (Sim.wakeup sim !blocked_tid);
          Sim.sleep_until sim (Sim.now sim + 300)
        done)
  in
  let result = Sim.run sim in
  (result, List.rev !trace)

let test_dispatch_golden () =
  let result, trace = dispatch_trace () in
  Alcotest.(check bool) "completes" true (result = Sim.Completed);
  Alcotest.(check int) "dispatch count" 203 (List.length trace);
  let b = Buffer.create 4096 in
  List.iter (fun (tid, at_ns) -> Printf.bprintf b "%d %d\n" tid at_ns) trace;
  Alcotest.(check string)
    "md5 of the (tid, at_ns) dispatch sequence"
    "eace96479993d26496669a788a3551dd" (md5 (Buffer.contents b))

(* full component systems: every paper workload under a crash storm,
   pinned as complete event streams (seq, at_ns, tid and kind of every
   emission) in their JSON-lines rendering *)
let storm_pins =
  [
    ("sched", 1020, "887bae0995c7daaa1ce4faf9a3c44d18");
    ("mm", 198, "8dc34e2d7b3a96c1327026a45d4fe89b");
    ("fs", 468, "8ab8bffcc64409a5bc95c0af22054688");
    ("lock", 736, "7c00f3198a0ed3585da67df3b2169284");
    ("evt", 465, "8c419121dda0ea0aa64822138334696b");
    ("timer", 94, "e2e3cf60a71e9a49b9c401b67b5f2360");
  ]

let storm ~iface ~every =
  Workloads.run_storm
    (Sysbuild.build Superglue.Stubset.mode)
    ~iface ~iters:25 ~every:(Some every) ~detector:"storm"

let test_storm_streams_golden () =
  Alcotest.(check (list string))
    "every workload pinned" Workloads.all_ifaces
    (List.map (fun (iface, _, _) -> iface) storm_pins);
  List.iter
    (fun (iface, count, digest) ->
      match storm ~iface ~every:7 with
      | Error msg -> Alcotest.failf "storm %s: %s" iface msg
      | Ok events ->
          Alcotest.(check int) (iface ^ ": event count") count
            (List.length events);
          let b = Buffer.create (1 lsl 16) in
          List.iter
            (fun e ->
              Sg_obs.Jsonl.add_event b e;
              Buffer.add_char b '\n')
            events;
          Alcotest.(check string)
            (iface ^ ": md5 of the JSON-lines stream")
            digest (md5 (Buffer.contents b)))
    storm_pins

(* a lock crash on every dispatch leaves no invocation that can succeed:
   the runner reports how the run ended instead of raising *)
let test_storm_error () =
  match storm ~iface:"lock" ~every:1 with
  | Ok events -> Alcotest.failf "converged with %d events" (List.length events)
  | Error msg ->
      Alcotest.(check bool)
        ("names the fatal end: " ^ msg)
        true
        (String.starts_with ~prefix:"run ended fatal: " msg);
      Alcotest.(check bool) "one line" false (String.contains msg '\n')

(* the parallel driver: -j 4 must produce exactly the -j 1 row, which in
   turn must equal the sequential Campaign.run row *)
let test_pardriver_rows () =
  List.iter
    (fun (iface, injections) ->
      let seq_row =
        Campaign.run ~seed:3 ~mode:Superglue.Stubset.mode ~iface ~injections ()
      in
      List.iter
        (fun jobs ->
          let row =
            Pardriver.run ~seed:3 ~jobs ~mode:Superglue.Stubset.mode ~iface
              ~injections ()
          in
          if row <> seq_row then
            Alcotest.failf "%s -j %d: %a <> sequential %a" iface jobs
              Campaign.pp_row row Campaign.pp_row seq_row)
        [ 1; 2; 4 ])
    [ ("lock", 40); ("fs", 25) ]

(* chunk streams delivered by the parallel driver match the sequential
   driver's chunk-by-chunk streams, in order *)
let test_pardriver_chunk_streams () =
  let collect jobs =
    let chunks = ref [] in
    let row =
      Pardriver.run ~seed:5 ~jobs ~mode:Superglue.Stubset.mode ~iface:"lock"
        ~injections:30
        ~on_chunk:(fun ~seed events -> chunks := (seed, events) :: !chunks)
        ()
    in
    (row, List.rev !chunks)
  in
  let row1, chunks1 = collect 1 in
  let row4, chunks4 = collect 4 in
  Alcotest.(check bool) "rows equal" true (row1 = row4);
  Alcotest.(check (list int))
    "same chunk seeds in same order" (List.map fst chunks1)
    (List.map fst chunks4);
  List.iter2
    (fun (s, ev1) (_, ev4) ->
      Alcotest.(check int)
        (Printf.sprintf "chunk %d: same stream length" s)
        (List.length ev1) (List.length ev4);
      if ev1 <> ev4 then Alcotest.failf "chunk %d: streams differ" s)
    chunks1 chunks4

let () =
  Alcotest.run "sched"
    [
      ( "golden-trace",
        [
          Alcotest.test_case "fiber dispatch sequence identical" `Quick
            test_dispatch_golden;
          Alcotest.test_case "crash-storm event streams identical" `Quick
            test_storm_streams_golden;
          Alcotest.test_case "unconverged storm is an Error" `Quick
            test_storm_error;
        ] );
      ( "pardriver",
        [
          Alcotest.test_case "-j 1/2/4 rows equal sequential" `Quick
            test_pardriver_rows;
          Alcotest.test_case "-j 4 chunk streams equal -j 1" `Quick
            test_pardriver_chunk_streams;
        ] );
    ]
