(* Unit tests for the recovery runtime: the descriptor tracker (including
   id virtualization), the client-stub engine's accounting, the server
   stub's storage bookkeeping, and the simulator's recovery trace. *)

module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Tracker = Sg_c3.Tracker
module Cstub = Sg_c3.Cstub
module Sysbuild = Sg_components.Sysbuild
module Lock = Sg_components.Lock
module Ramfs = Sg_components.Ramfs
module Event = Sg_components.Event
module Storage = Sg_storage.Storage

let with_tracker f =
  let sim = Sim.create () in
  let tr = Tracker.create ~flavor:Tracker.C3 () in
  f sim tr

let test_tracker_add_find () =
  with_tracker (fun sim tr ->
      let d =
        Tracker.add tr sim ~state:"s" ~meta:[ ("k", Comp.VInt 9) ] ~epoch:0 7
      in
      Alcotest.(check int) "id" 7 d.Tracker.d_id;
      Alcotest.(check int) "server id defaults to id" 7 d.Tracker.d_server_id;
      Alcotest.(check (option int)) "meta" (Some 9) (Tracker.meta_int d "k");
      Alcotest.(check bool) "found" true (Tracker.find tr 7 <> None);
      Tracker.remove tr 7;
      Alcotest.(check bool) "removed" true (Tracker.find tr 7 = None))

let test_tracker_children () =
  with_tracker (fun sim tr ->
      let _p = Tracker.add tr sim ~state:"s" ~meta:[] ~epoch:0 1 in
      let _c1 =
        Tracker.add tr sim ~parent:(Tracker.Local 1) ~state:"s" ~meta:[] ~epoch:0 2
      in
      let c2 =
        Tracker.add tr sim ~parent:(Tracker.Local 1) ~state:"s" ~meta:[] ~epoch:0 3
      in
      Alcotest.(check int) "two children" 2 (List.length (Tracker.children tr 1));
      c2.Tracker.d_live <- false;
      Alcotest.(check int) "dead children excluded" 1
        (List.length (Tracker.children tr 1)))

let test_tracker_virtual_ids () =
  with_tracker (fun sim tr ->
      let v1 = Tracker.fresh tr and v2 = Tracker.fresh tr in
      Alcotest.(check bool) "fresh ids distinct" true (v1 <> v2);
      Alcotest.(check bool) "outside concrete id space" true (v1 >= 1 lsl 40);
      let _ = Tracker.add tr sim ~state:"s" ~meta:[] ~epoch:0 5 in
      (match Tracker.rekey tr ~from:5 ~to_:v1 with
      | Some d ->
          Alcotest.(check int) "virtual key" v1 d.Tracker.d_id;
          Alcotest.(check int) "server id is the concrete id" 5 d.Tracker.d_server_id
      | None -> Alcotest.fail "rekey failed");
      Alcotest.(check bool) "old key gone" true (Tracker.find tr 5 = None);
      Alcotest.(check bool) "new key present" true (Tracker.find tr v1 <> None);
      Alcotest.(check bool) "rekey of a missing key" true
        (Tracker.rekey tr ~from:99 ~to_:v2 = None))

(* The children index against the definition it replaced, a filter of
   every tracked record, under random adds (fresh and replacing),
   rekeys, removals and kills. *)
let prop_children_index =
  let op =
    QCheck.Gen.(
      oneof
        [
          map2 (fun id p -> `Add (id, p)) (int_bound 15) (opt (int_bound 15));
          map2 (fun a b -> `Rekey (a, b)) (int_bound 15) (int_bound 15);
          map (fun id -> `Remove id) (int_bound 15);
          map (fun id -> `Kill id) (int_bound 15);
        ])
  in
  QCheck.Test.make ~name:"children index equals the table filter" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) op))
    (fun ops ->
      let sim = Sim.create () in
      let tr = Tracker.create ~flavor:Tracker.C3 () in
      List.iter
        (function
          | `Add (id, p) ->
              ignore
                (Tracker.add tr sim
                   ?parent:(Option.map (fun p -> Tracker.Local p) p)
                   ~state:"s" ~meta:[] ~epoch:0 id)
          | `Rekey (a, b) -> ignore (Tracker.rekey tr ~from:a ~to_:b)
          | `Remove id -> Tracker.remove tr id
          | `Kill id -> (
              match Tracker.find tr id with
              | Some d -> d.Tracker.d_live <- false
              | None -> ()))
        ops;
      List.for_all
        (fun id ->
          let expect =
            List.filter
              (fun d -> d.Tracker.d_parent = Some (Tracker.Local id))
              (Tracker.live tr)
          in
          List.map (fun d -> d.Tracker.d_id) (Tracker.children tr id)
          = List.map (fun d -> d.Tracker.d_id) expect)
        (List.init 16 Fun.id))

(* C³'s mm stub keeps every released mapping, dead. A release walks
   the released mapping's subtree through [children]: it must read
   that subtree's records only (here the mapping's one alias), however
   many released ones the tracker holds. Counted, not timed. *)
let test_release_reads_own_subtree () =
  let cfg = Sg_components.C3_stub_mm.client_config () in
  let per_release iterations =
    let sim = Sim.create () in
    let tr = Tracker.create ~flavor:Tracker.C3 () in
    let call fn args = cfg.Cstub.cfg_track sim tr ~epoch:0 fn args Comp.VUnit in
    for i = 1 to iterations do
      let vaddr = 0x4000_0000 + (i lsl 12) in
      call "mman_get_page" [ Comp.VInt vaddr ];
      call "mman_alias_page" [ Comp.VInt vaddr; Comp.VInt 7; Comp.VInt (vaddr + 0x1000_0000) ]
    done;
    let before = Tracker.examined tr in
    for i = 1 to iterations do
      call "mman_release_page" [ Comp.VInt (0x4000_0000 + (i lsl 12)) ]
    done;
    Alcotest.(check int) "every record released" 0 (List.length (Tracker.live tr));
    Alcotest.(check int) "records kept" (2 * iterations) (Tracker.count tr);
    float_of_int (Tracker.examined tr - before) /. float_of_int iterations
  in
  List.iter
    (fun n ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "records read per release after %d iterations" n)
        1.0 (per_release n))
    [ 100; 400; 1600 ]

let test_tracker_charges_by_flavor () =
  let sim = Sim.create () in
  let charge flavor =
    let tr = Tracker.create ~flavor () in
    let t0 = Sim.now sim in
    Tracker.track_charge tr sim;
    Sim.now sim - t0
  in
  let c3 = charge Tracker.C3 in
  let sg = charge Tracker.Superglue in
  Alcotest.(check bool) "superglue tracking dearer" true (sg > c3)

(* client-visible ids survive a server whose counter restarts *)
let test_virtualized_ids_survive_collision () =
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"lock" in
  let ok = ref false in
  let _ =
    Sim.spawn sim ~name:"t" ~home:app (fun sim ->
        let a = Lock.alloc port sim in
        Lock.take port sim a;
        (* crash: the rebooted lock service restarts its id counter *)
        Sim.mark_failed sim sys.Sysbuild.sys_services.lock ~detector:"test";
        (* a new allocation must not collide with the held lock's id *)
        let b = Lock.alloc port sim in
        Alcotest.(check bool) "distinct client ids" true (a <> b);
        Lock.take port sim b;
        Lock.release port sim b;
        Lock.release port sim a;
        Lock.free port sim a;
        Lock.free port sim b;
        ok := true)
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> Alcotest.failf "run: %a" Sim.pp_run_result r);
  Alcotest.(check bool) "completed" true !ok

(* Y_dr = false: a released parent's tracking survives for its children *)
let test_ydr_keeps_closed_records () =
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"fs" in
  let got = ref "" in
  let _ =
    Sim.spawn sim ~name:"t" ~home:app (fun sim ->
        let parent = Ramfs.tsplit port sim ~parent:Ramfs.root_fd ~name:"dir" in
        let child = Ramfs.tsplit port sim ~parent ~name:"leaf" in
        ignore (Ramfs.twrite port sim ~fd:child ~data:"deep");
        (* close the parent, then crash: the child's recovery must still
           resolve its parent chain from the kept record *)
        Ramfs.trelease port sim ~fd:parent;
        Sim.mark_failed sim sys.Sysbuild.sys_services.fs ~detector:"test";
        ignore (Ramfs.tlseek port sim ~fd:child ~off:0);
        got := Ramfs.tread port sim ~fd:child ~len:4)
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> Alcotest.failf "run: %a" Sim.pp_run_result r);
  Alcotest.(check string) "nested file recovered" "deep" !got

let test_recovery_trace () =
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"lock" in
  let _ =
    Sim.spawn sim ~name:"t" ~home:app (fun sim ->
        let a = Lock.alloc port sim in
        Sim.mark_failed sim sys.Sysbuild.sys_services.lock ~detector:"trace-test";
        Lock.take port sim a;
        Lock.release port sim a)
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> Alcotest.failf "run: %a" Sim.pp_run_result r);
  let times pick =
    List.filter_map
      (fun (e : Sg_obs.Event.t) -> if pick e.kind then Some e.at_ns else None)
      (Sg_obs.Sink.events (Sim.obs sim))
  in
  let crashes = times (function Sg_obs.Event.Crash _ -> true | _ -> false) in
  let reboots = times (function Sg_obs.Event.Reboot _ -> true | _ -> false) in
  Alcotest.(check bool) "fault recorded" true (crashes <> []);
  Alcotest.(check bool) "reboot recorded" true (reboots <> []);
  (* chronology: the fault detection precedes the micro-reboot *)
  Alcotest.(check bool) "fault before reboot" true (List.hd crashes <= List.hd reboots)

let test_upcall_trace_on_g0 () =
  (* the evt global-descriptor recovery leaves an upcall in the trace *)
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let sim = sys.Sysbuild.sys_sim in
  let app1 = sys.Sysbuild.sys_app1 and app2 = sys.Sysbuild.sys_app2 in
  let port1 = sys.Sysbuild.sys_port ~client:app1 ~iface:"evt" in
  let port2 = sys.Sysbuild.sys_port ~client:app2 ~iface:"evt" in
  let evt = ref 0 in
  let _ =
    Sim.spawn sim ~prio:4 ~name:"creator" ~home:app2 (fun sim ->
        evt := Event.split port2 sim ~compid:app2 ~parent:0 ~grp:1)
  in
  let _ =
    Sim.spawn sim ~prio:5 ~name:"trigger" ~home:app1 (fun sim ->
        Sim.mark_failed sim sys.Sysbuild.sys_services.evt ~detector:"test";
        Event.trigger port1 sim ~compid:app1 !evt)
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> Alcotest.failf "run: %a" Sim.pp_run_result r);
  let upcalled =
    List.exists
      (fun (e : Sg_obs.Event.t) ->
        match e.kind with Sg_obs.Event.Upcall { cid; _ } -> cid = app2 | _ -> false)
      (Sg_obs.Sink.events (Sim.obs sim))
  in
  Alcotest.(check bool) "upcall into the creator recorded" true upcalled

let lock_invalid_transitions () =
  Superglue.Interp.invalid_transitions
    (Lazy.force
       (Superglue.Interp.stub
          (Superglue.Compiler.builtin "lock")
          ~storage:(Storage.create (Sg_cbuf.Cbuf.create ()))
          ())
         .Sysbuild.client)

(* calling release on a never-taken lock is outside sigma: the
   SuperGlue stub counts it (paper SectionIII-B fault detection) *)
let release_untaken_lock ?(times = 1) () =
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"lock" in
  let _ =
    Sim.spawn sim ~name:"t" ~home:app (fun sim ->
        let a = Lock.alloc port sim in
        for _ = 1 to times do
          Lock.release port sim a
        done)
  in
  ignore (Sim.run sim)

let test_invalid_transition_detection () =
  let before = lock_invalid_transitions () in
  release_untaken_lock ();
  let after = lock_invalid_transitions () in
  Alcotest.(check bool) "invalid transition counted" true (after > before)

(* the counters are process-wide and bumped from whichever pool domain
   runs a stub: K runs fanned over four domains must add exactly K times
   what one run adds — no increment lost to a race, none to a counter
   created twice. Each run releases many times so that domains bump the
   counter concurrently often enough for a plain [incr] to lose some. *)
let test_invalid_transitions_across_domains () =
  let k = 16 and times = 5000 in
  let before = lock_invalid_transitions () in
  release_untaken_lock ~times ();
  let delta = lock_invalid_transitions () - before in
  Alcotest.(check bool) "one run counts" true (delta > 0);
  let before = lock_invalid_transitions () in
  Sg_util.Pool.run ~jobs:4 ~count:k
    ~task:(fun ~cancelled:_ _ -> release_untaken_lock ~times ())
    ~consume:(fun _ () -> Sg_util.Pool.Continue)
    ();
  Alcotest.(check int)
    "K runs add K x one run" (k * delta)
    (lock_invalid_transitions () - before)

let test_machine_to_dot () =
  let a = Superglue.Compiler.builtin "lock" in
  let dot = Superglue.Machine.to_dot a.Superglue.Compiler.a_machine in
  List.iter
    (fun needle ->
      if
        not
          (let n = String.length dot and m = String.length needle in
           let rec go i = i + m <= n && (String.sub dot i m = needle || go (i + 1)) in
           go 0)
      then Alcotest.failf "dot output lacks %S" needle)
    [ "digraph"; "after:lock_take"; "recover: lock_alloc -> lock_take" ]

let () =
  Alcotest.run "sg_c3"
    [
      ( "tracker",
        [
          Alcotest.test_case "add/find/remove" `Quick test_tracker_add_find;
          Alcotest.test_case "children" `Quick test_tracker_children;
          QCheck_alcotest.to_alcotest prop_children_index;
          Alcotest.test_case "a release reads only its subtree" `Quick
            test_release_reads_own_subtree;
          Alcotest.test_case "virtual ids" `Quick test_tracker_virtual_ids;
          Alcotest.test_case "flavor costs" `Quick test_tracker_charges_by_flavor;
        ] );
      ( "engine",
        [
          Alcotest.test_case "virtualized ids survive collisions" `Quick
            test_virtualized_ids_survive_collision;
          Alcotest.test_case "Y_dr keeps closed records" `Quick
            test_ydr_keeps_closed_records;
          Alcotest.test_case "invalid transitions detected" `Quick
            test_invalid_transition_detection;
          Alcotest.test_case "invalid transitions add up across domains" `Quick
            test_invalid_transitions_across_domains;
        ] );
      ( "trace",
        [
          Alcotest.test_case "fault and reboot recorded" `Quick test_recovery_trace;
          Alcotest.test_case "G0 upcall recorded" `Quick test_upcall_trace_on_g0;
        ] );
      ("tooling", [ Alcotest.test_case "state machine DOT" `Quick test_machine_to_dot ]);
    ]
