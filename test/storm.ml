(* The storm cases every stub backend of [Paper.modes] shares (c3,
   superglue, superglue-gen): each paper workload, run
   by Workloads.run_storm fault-free and under a fail-stop crash of its
   own service every [period]-th dispatch, must complete with clean
   postconditions, report its backend as [sys_mode], and micro-reboot
   exactly when faults are injected. *)

module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads

(* one run of [iface]'s workload on a fresh system; an incomplete run
   or a violated postcondition fails the test *)
let run mode iface ~iters ~every =
  let sys = Sysbuild.build mode in
  (match Workloads.run_storm sys ~iface ~iters ~every ~detector:"forced" with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "[%s] %s" sys.Sysbuild.sys_mode msg);
  sys

let case backend name iface ~every =
  Alcotest.test_case name `Quick (fun () ->
      let mode = List.assoc backend Sg_harness.Paper.modes in
      let sys = run mode iface ~iters:25 ~every in
      Alcotest.(check string) "mode" backend sys.Sysbuild.sys_mode;
      let reboots = Sim.reboots sys.Sysbuild.sys_sim in
      match every with
      | None -> Alcotest.(check int) "no reboots without faults" 0 reboots
      | Some _ ->
          if reboots = 0 then Alcotest.fail "expected at least one micro-reboot")

let faultfree backend =
  List.map
    (fun iface -> case backend (iface ^ " fault-free") iface ~every:None)
    Workloads.all_ifaces

(* each workload under a storm of each period in [periods] *)
let storms backend periods =
  List.concat_map
    (fun iface ->
      List.map
        (fun period ->
          case backend
            (Printf.sprintf "%s survives crash every %d dispatches" iface period)
            iface ~every:(Some period))
        periods)
    Workloads.all_ifaces
