module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Cstub = Sg_c3.Cstub
module Tracker = Sg_c3.Tracker
module Stats = Sg_util.Stats
module Table = Sg_util.Table
module Clock = Sg_kernel.Clock
module Lock = Sg_components.Lock
module Event = Sg_components.Event
module Timer = Sg_components.Timer
module Mm = Sg_components.Mm
module Ramfs = Sg_components.Ramfs
module Sched = Sg_components.Sched

(* ---------- Fig 6(a): infrastructure (tracking) overhead ---------- *)

type overhead_row = {
  o_iface : string;
  o_base_us : float;
  o_c3 : Stats.summary;
  o_sg : Stats.summary;
}

(* The timer workload of §V-B spends its time in 200 µs sleeps whose
   wakeups are absolute deadlines, which absorb the (relatively tiny)
   tracking time; this CPU-bound variant with a sub-microsecond period
   makes the per-operation tracking overhead observable, as in the
   paper's timer micro-benchmark. *)
let timer_cpu_workload sys ~iters =
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"timer" in
  let ticks = ref 0 in
  let _ =
    Sim.spawn sim ~prio:5 ~name:"timer-cpu" ~home:app (fun sim ->
        let id = Timer.create port sim ~period_ns:500 in
        for _ = 1 to iters do
          ignore (Timer.wait port sim id);
          incr ticks
        done;
        Timer.free port sim id)
  in
  fun () -> if !ticks = iters then [] else [ "timer-cpu: incomplete" ]

let per_iteration_us ~mode ~iface ~iters ~seed =
  let sys = Sysbuild.build ~seed mode in
  let check =
    if iface = "timer" then timer_cpu_workload sys ~iters
    else Workloads.setup sys ~iface ~iters
  in
  (match Sim.run sys.Sysbuild.sys_sim with
  | Sim.Completed -> ()
  | r ->
      failwith
        (Format.asprintf "fig6a %s/%s: %a" sys.Sysbuild.sys_mode iface
           Sim.pp_run_result r));
  (match check () with
  | [] -> ()
  | v -> failwith ("fig6a: " ^ String.concat "; " v));
  Clock.us_of_ns (Sim.now sys.Sysbuild.sys_sim) /. float_of_int iters

let infrastructure ?(reps = 5) ?(iters = 60) () =
  List.map
    (fun iface ->
      let series mode =
        List.init reps (fun i ->
            per_iteration_us ~mode ~iface ~iters ~seed:(41 + i))
      in
      let base = series Sysbuild.Base in
      let c3 = series (Sysbuild.Stubbed Sysbuild.c3_stubset) in
      let sg = series Superglue.Stubset.mode in
      let overhead s = List.map2 (fun m b -> m -. b) s base in
      {
        o_iface = iface;
        o_base_us = Stats.mean base;
        o_c3 = Stats.summarize (overhead c3);
        o_sg = Stats.summarize (overhead sg);
      })
    Workloads.all_ifaces

(* ---------- Fig 6(b): per-descriptor recovery overhead ---------- *)

type recovery_row = { v_iface : string; v_c3 : Stats.summary; v_sg : Stats.summary }

(* Populate each interface with a few descriptors in interesting
   states, from a measurement fiber, through [port] of application 1. *)
let descriptors =
  {
    Sysbuild.sched =
      (fun _ sim port -> Sched.create port sim ~tid:(Sim.current_tid sim) ~prio:5);
    mm =
      (fun sys sim port ->
        Mm.get_page port sim ~vaddr:0x9000_0000;
        Mm.alias_page port sim ~svaddr:0x9000_0000 ~dst:sys.Sysbuild.sys_app2
          ~dvaddr:0x9100_0000);
    fs =
      (fun _ sim port ->
        let fd = Ramfs.tsplit port sim ~parent:Ramfs.root_fd ~name:"r.dat" in
        ignore (Ramfs.twrite port sim ~fd ~data:"0123456789"));
    lock =
      (fun _ sim port ->
        let a = Lock.alloc port sim in
        Lock.take port sim a;
        ignore (Lock.alloc port sim));
    evt =
      (* the full mechanism set: the child is created by a different
         component, so its recovery crosses the storage registry and
         upcalls into the creator (G0/U0/D1) *)
      (fun sys sim port ->
        let app1 = sys.Sysbuild.sys_app1 and app2 = sys.Sysbuild.sys_app2 in
        let parent = Event.split port sim ~compid:app1 ~parent:0 ~grp:1 in
        let port2 = sys.Sysbuild.sys_port ~client:app2 ~iface:"evt" in
        let _ =
          Sim.spawn sim ~name:"fig6b-evt-child" ~home:app2 (fun sim ->
              ignore (Event.split port2 sim ~compid:app2 ~parent ~grp:1))
        in
        Sim.yield sim);
    timer = (fun _ sim port -> ignore (Timer.create port sim ~period_ns:500_000));
  }

let recovery_us_per_descriptor ~mode ~iface ~seed =
  let sys = Sysbuild.build ~seed mode in
  let sim = sys.Sysbuild.sys_sim in
  let samples = ref [] in
  let _ =
    Sim.spawn sim ~name:"fig6b" ~home:sys.Sysbuild.sys_app1 (fun sim ->
        Sysbuild.get descriptors iface sys sim
          (sys.Sysbuild.sys_port ~client:sys.Sysbuild.sys_app1 ~iface);
        let target = Sysbuild.cid_of_iface sys iface in
        Sim.mark_failed sim target ~detector:"fig6b";
        Cstub.ensure_alive sim target;
        List.iter
          (fun client ->
            match sys.Sysbuild.sys_stub ~client ~iface with
            | None -> ()
            | Some stub ->
                List.iter
                  (fun d ->
                    let t0 = Sim.now sim in
                    Cstub.recover_desc sim stub d;
                    samples := Clock.us_of_ns (Sim.now sim - t0) :: !samples)
                  (Tracker.live (Cstub.tracker stub)))
          [ sys.Sysbuild.sys_app1; sys.Sysbuild.sys_app2 ])
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> failwith (Format.asprintf "fig6b %s: %a" iface Sim.pp_run_result r));
  !samples

let recovery ?(reps = 5) () =
  List.map
    (fun iface ->
      let series mode =
        List.concat_map
          (fun i -> recovery_us_per_descriptor ~mode ~iface ~seed:(11 + i))
          (List.init reps (fun i -> i))
      in
      {
        v_iface = iface;
        v_c3 = Stats.summarize (series (Sysbuild.Stubbed Sysbuild.c3_stubset));
        v_sg = Stats.summarize (series Superglue.Stubset.mode);
      })
    Workloads.all_ifaces

(* ---------- Fig 6(c): lines of code ---------- *)

type loc_row = { l_iface : string; l_idl : int; l_generated : int; l_c3 : int }

(* the hand-written C³ stub of each service, embedded at build time;
   counted only when Fig 6(c) is drawn, like the other two columns *)
let c3_stub =
  {
    Sysbuild.sched = "c3_stub_sched";
    mm = "c3_stub_mm";
    fs = "c3_stub_fs";
    lock = "c3_stub_lock";
    evt = "c3_stub_event";
    timer = "c3_stub_timer";
  }

let loc () =
  List.map
    (fun iface ->
      let a = Superglue.Compiler.builtin iface in
      {
        l_iface = iface;
        l_idl = Superglue.Codegen.loc a.Superglue.Compiler.a_source;
        l_generated = Superglue.Codegen.loc (Superglue.Codegen.emit a);
        l_c3 =
          Superglue.Codegen.loc (List.assoc (Sysbuild.get c3_stub iface) C3_sources.files);
      })
    Workloads.all_ifaces
