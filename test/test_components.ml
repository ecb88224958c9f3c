(* Integration tests: the six system services and their paper workloads,
   in the base and C3 configurations, without and with forced crashes.

   The "crash every Nth dispatch" tests are the heart of the recovery
   machinery's validation: the workload must complete with all
   postconditions intact while its service is repeatedly killed. *)

module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads

let test_base_faultfree iface () =
  ignore (Storm.run Sysbuild.Base iface ~iters:25 ~every:None)

let test_base_crash_is_fatal () =
  (* without recovery, a crashed system service brings the workload (and
     thus the system) down — the motivation for the whole paper *)
  let sys = Sysbuild.build Sysbuild.Base in
  match
    Workloads.run_storm sys ~iface:"fs" ~iters:10 ~every:(Some 5)
      ~detector:"forced"
  with
  | Error msg when String.starts_with ~prefix:"run ended fatal" msg -> ()
  | Error msg -> Alcotest.failf "expected a fatal run, got %s" msg
  | Ok _ -> Alcotest.fail "expected a fatal run, got a completed one"

let test_c3_tracking_overhead_charged () =
  (* the same workload must take longer with stubs than without *)
  let elapsed mode =
    Sim.now (Storm.run mode "fs" ~iters:50 ~every:None).Sysbuild.sys_sim
  in
  let t_base = elapsed Sysbuild.Base in
  let t_c3 = elapsed (Sysbuild.Stubbed Sysbuild.c3_stubset) in
  if t_c3 <= t_base then
    Alcotest.failf "C3 run (%d ns) should cost more than base (%d ns)" t_c3 t_base

let test_mm_subtree_after_recovery () =
  (* build a 3-level alias chain, crash the MM, then release the root:
     the whole subtree must be revoked through recovery (D0/D1) *)
  let sys = Sysbuild.build (Sysbuild.Stubbed Sysbuild.c3_stubset) in
  let sim = sys.Sysbuild.sys_sim in
  let app1 = sys.Sysbuild.sys_app1 and app2 = sys.Sysbuild.sys_app2 in
  let port = sys.Sysbuild.sys_port ~client:app1 ~iface:"mm" in
  let module Mm = Sg_components.Mm in
  let revoked = ref 0 in
  let _ =
    Sim.spawn sim ~name:"mm-chain" ~home:app1 (fun sim ->
        Mm.get_page port sim ~vaddr:0x10000;
        Mm.alias_page port sim ~svaddr:0x10000 ~dst:app2 ~dvaddr:0x20000;
        Mm.alias_page port sim ~svaddr:0x10000 ~dst:app1 ~dvaddr:0x30000;
        (* crash the memory manager: all alias trees are lost *)
        Sim.mark_failed sim sys.Sysbuild.sys_services.mm ~detector:"test";
        revoked := Mm.release_page port sim ~vaddr:0x10000)
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> Alcotest.failf "run failed: %a" Sim.pp_run_result r);
  Alcotest.(check int) "whole subtree revoked" 3 !revoked;
  let kernel = Sim.kernel sim in
  Alcotest.(check int) "no residual kernel mappings" 0
    (Sg_kernel.Frames.mapping_count kernel.Sg_kernel.Kernel.frames)

let test_fs_data_survives_reboot () =
  (* write a file, crash the FS, read it back through recovery (G1) *)
  let sys = Sysbuild.build (Sysbuild.Stubbed Sysbuild.c3_stubset) in
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"fs" in
  let module Ramfs = Sg_components.Ramfs in
  let got = ref "" in
  let _ =
    Sim.spawn sim ~name:"fs-g1" ~home:app (fun sim ->
        let fd = Ramfs.tsplit port sim ~parent:Ramfs.root_fd ~name:"data.bin" in
        ignore (Ramfs.twrite port sim ~fd ~data:"hello");
        ignore (Ramfs.twrite port sim ~fd ~data:" world");
        Sim.mark_failed sim sys.Sysbuild.sys_services.fs ~detector:"test";
        ignore (Ramfs.tlseek port sim ~fd ~off:0);
        got := Ramfs.tread port sim ~fd ~len:11)
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> Alcotest.failf "run failed: %a" Sim.pp_run_result r);
  Alcotest.(check string) "contents restored from storage" "hello world" !got

let test_evt_global_descriptor_recovery () =
  (* app2 waits on an event, the event manager crashes, app1 triggers it
     with the stale global id: the server stub must consult the storage
     component and upcall the creator (G0/U0) *)
  let sys = Sysbuild.build (Sysbuild.Stubbed Sysbuild.c3_stubset) in
  let sim = sys.Sysbuild.sys_sim in
  let app1 = sys.Sysbuild.sys_app1 and app2 = sys.Sysbuild.sys_app2 in
  let port1 = sys.Sysbuild.sys_port ~client:app1 ~iface:"evt" in
  let port2 = sys.Sysbuild.sys_port ~client:app2 ~iface:"evt" in
  let module Event = Sg_components.Event in
  let woke = ref false in
  let evt_id = ref 0 in
  let _ =
    Sim.spawn sim ~prio:5 ~name:"waiter" ~home:app2 (fun sim ->
        evt_id := Event.split port2 sim ~compid:app2 ~parent:0 ~grp:7;
        Event.wait port2 sim ~compid:app2 !evt_id;
        woke := true)
  in
  let _ =
    Sim.spawn sim ~prio:6 ~name:"trigger" ~home:app1 (fun sim ->
        Sim.yield sim;
        (* kill the event manager while the waiter is blocked inside *)
        Sim.mark_failed sim sys.Sysbuild.sys_services.evt ~detector:"test";
        (* app1 never created the descriptor: its stub has no record, so
           recovery must flow through storage + upcall into app2 *)
        Event.trigger port1 sim ~compid:app1 !evt_id)
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> Alcotest.failf "run failed: %a" Sim.pp_run_result r);
  Alcotest.(check bool) "waiter woke through recovered event" true !woke

(* the paper's order sets Table II's rows and the web benchmarks' crash
   rotation; the boot order decides every cid, so every pinned stream *)
let test_service_orders () =
  Alcotest.(check (list string))
    "paper order"
    [ "sched"; "mm"; "fs"; "lock"; "evt"; "timer" ]
    Sysbuild.names;
  Alcotest.(check (list string))
    "boot order"
    [ "sched"; "lock"; "timer"; "evt"; "fs"; "mm" ]
    Sysbuild.boot_order;
  Alcotest.(check (list string)) "aliases" Sysbuild.names Workloads.all_ifaces;
  Alcotest.(check (list string))
    "aliases" Sysbuild.names Superglue.Compiler.builtin_names;
  let sys = Sysbuild.build Sysbuild.Base in
  Alcotest.(check (list int))
    "cids follow the boot order"
    (List.init 6 (fun i -> sys.Sysbuild.sys_app2 + 1 + i))
    (List.map (Sysbuild.cid_of_iface sys) Sysbuild.boot_order);
  List.iter
    (fun (iface, cid) ->
      Alcotest.(check (option string))
        "cid to name" (Some iface)
        (Sysbuild.iface_of_cid sys cid))
    (Sysbuild.services sys);
  Alcotest.(check (option string))
    "an application is no service" None
    (Sysbuild.iface_of_cid sys sys.Sysbuild.sys_app1)

let test_unknown_service () =
  Alcotest.check_raises "one lookup"
    (Invalid_argument "Sysbuild: unknown interface nonesuch") (fun () ->
      ignore (Sysbuild.get Sysbuild.image_kb "nonesuch"));
  let sys = Sysbuild.build Sysbuild.Base in
  Alcotest.check_raises "ports"
    (Invalid_argument "Sysbuild: unknown interface nonesuch") (fun () ->
      ignore (sys.Sysbuild.sys_port ~client:sys.Sysbuild.sys_app1 ~iface:"nonesuch"))

(* Minor words per built SuperGlue system with one application's six
   ports resolved: what a DST scenario or campaign chunk pays before it
   runs. Minor words do not depend on host speed; the ceiling sits at
   what a build allocates now. *)
let test_build_budget () =
  let build seed =
    let sys = Sysbuild.build ~seed Superglue.Stubset.mode in
    List.iter
      (fun iface ->
        ignore (sys.Sysbuild.sys_port ~client:sys.Sysbuild.sys_app1 ~iface))
      Sysbuild.names
  in
  (* the first build also registers the interfaces' process-wide
     counters *)
  build 0;
  let builds = 1000 in
  let before = Gc.minor_words () in
  for seed = 1 to builds do
    build seed
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int builds in
  let ceiling = 2323. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per build and six ports, ceiling %.0f"
       words ceiling)
    true (words <= ceiling)

let () =
  let base_cases =
    List.map
      (fun iface ->
        Alcotest.test_case (iface ^ " fault-free") `Quick (test_base_faultfree iface))
      Workloads.all_ifaces
  in
  Alcotest.run "sg_components"
    [
      ("base", base_cases);
      ("c3-faultfree", Storm.faultfree "c3");
      ("c3-recovery", Storm.storms "c3" [ 7; 23 ]);
      ( "services",
        [
          Alcotest.test_case "paper and boot orders" `Quick test_service_orders;
          Alcotest.test_case "unknown name raises" `Quick test_unknown_service;
        ] );
      ( "allocation",
        [ Alcotest.test_case "build and six ports" `Quick test_build_budget ] );
      ( "scenarios",
        [
          Alcotest.test_case "base crash is fatal" `Quick test_base_crash_is_fatal;
          Alcotest.test_case "tracking overhead charged" `Quick
            test_c3_tracking_overhead_charged;
          Alcotest.test_case "mm subtree recovery" `Quick test_mm_subtree_after_recovery;
          Alcotest.test_case "fs data survives reboot" `Quick test_fs_data_survives_reboot;
          Alcotest.test_case "evt global descriptor recovery" `Quick
            test_evt_global_descriptor_recovery;
        ] );
    ]
