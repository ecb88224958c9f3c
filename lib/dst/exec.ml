(* Scenario execution and the DST oracle (DESIGN.md §3.9).

   One scenario = (seed, workload, injection plan). Execution builds a
   fresh simulator, arms the plan as a dispatch hook plus storage-write
   faults, interprets the workload, and judges the run with the
   combined oracle: workload postconditions, the 8-rule trace checker
   and the static recovery-latency bounds. Everything is deterministic
   in the scenario, so a failing run replays bit-for-bit from its
   artifact. *)

module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Reg = Sg_kernel.Reg
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Sched = Sg_components.Sched
module Mm = Sg_components.Mm
module Ramfs = Sg_components.Ramfs
module Lock = Sg_components.Lock
module Event = Sg_components.Event
module Timer = Sg_components.Timer
module Storage = Sg_storage.Storage
module Injector = Sg_swifi.Injector
module Compiler = Superglue.Compiler
module Ir = Superglue.Ir
module Model = Superglue.Model
module Mutate = Sg_analysis.Mutate
module Wcr = Sg_analysis.Wcr
module Taint = Sg_analysis.Taint
module Adversary = Sg_c3.Adversary

type workload =
  | Ops of Gen.op list
  | Classic of { iface : string; iters : int; knob : int }

type scenario = {
  sc_seed : int;
  sc_workload : workload;
  sc_plan : Plan.fault list;
}

type sut = Pristine | Mutant of Mutate.mutant

type verdict =
  | Pass
  | Fail_postcond of string list
  | Fail_check of string list
  | Fail_over_bound of (string * int * int) list  (* iface, span, bound *)
  | Fail_fatal of string

type adversary_obs = { ao_fired : bool; ao_errors : int }

type outcome = {
  oc_verdict : verdict;
  oc_result : Sim.run_result;
  oc_events : int;
  oc_storage_faults : int;
  oc_stream : Sg_obs.Event.t list;
  oc_episodes : Sg_obs.Episode.t list;
  oc_adversary : adversary_obs option;
}

let sut_label = function
  | Pristine -> "superglue"
  | Mutant m -> "mutant:" ^ m.Mutate.m_id

let verdict_class = function
  | Pass -> "pass"
  | Fail_postcond _ -> "postcond"
  | Fail_check _ -> "check"
  | Fail_over_bound _ -> "over-bound"
  | Fail_fatal _ -> "fatal"

let verdict_detail = function
  | Pass -> []
  | Fail_postcond ms -> ms
  | Fail_check ms -> ms
  | Fail_over_bound vs ->
      List.map
        (fun (iface, span, bound) ->
          Printf.sprintf "%s: episode span %d ns exceeds static bound %d ns"
            iface span bound)
        vs
  | Fail_fatal m -> [ m ]

let services_of_workload = function
  | Ops ops -> Gen.services ops
  | Classic { iface; _ } -> [ iface ]

(* the paper workloads parameterized by one integer knob, the shrinkable
   shape axis of a Classic scenario *)
let classic_params iface knob =
  let d = Workloads.default_params in
  match iface with
  | "lock" -> { d with Workloads.wp_lock_contenders = 1 + knob }
  | "evt" -> { d with Workloads.wp_evt_triggers = knob }
  | "mm" -> { d with Workloads.wp_mm_fanout = knob }
  | "timer" -> { d with Workloads.wp_timer_period_ns = 50_000 * knob }
  | "fs" -> { d with Workloads.wp_fs_path = Gen.path_name knob }
  | _ -> d

(* ---------- the SUT ---------- *)

(* a mutant system is the pristine superglue stub set with the mutated
   interface's compiled artifact swapped in; Compile_error propagates
   (callers count it as a trivially detected mutant) *)
let mode_of_sut = function
  | Pristine -> Superglue.Stubset.mode
  | Mutant m ->
      let iface = m.Mutate.m_iface in
      let mutated = Compiler.compile ~name:iface m.Mutate.m_source in
      Sysbuild.Stubbed
        (Superglue.Stubset.make ~name:"superglue-mutant" (fun i ->
             if i = iface then mutated else Compiler.builtin i))

(* static bounds are always the *pristine* ones: a mutant that inflates
   its declared cap must still be judged against the spec it shipped.
   Both are built at module initialisation, so scenarios on any pool
   domain read them without a first-use race. *)
let pristine_report =
  Wcr.analyze (List.map Compiler.builtin Compiler.builtin_names)

let pristine_fs_cap =
  match (Compiler.builtin "fs").Compiler.a_ir.Ir.ir_model.Model.table_cap with
  | Some c -> c
  | None -> 3

(* ---------- the plan hook ---------- *)

type armed =
  | A_flip of { service : string; nth : int; reg : Reg.t; bit : int; at_pm : int }
  | A_crash of { service : string; nth : int; detector : string }
  | A_double1 of { service : string; nth : int; gap : int }
  | A_double2 of { service : string; fire_at : int }

(* generous ceilings turning runaway executions (a mutant looping in
   recovery, a broken handshake) into deterministic failures instead of
   real-time hangs; both are far above anything a healthy run needs *)
let dispatch_budget = 300_000
let spin_limit = 100_000

let install_plan sys plan pending =
  let sim = sys.Sysbuild.sys_sim in
  let iface_of =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (iface, cid) -> Hashtbl.replace tbl cid iface)
      (Sysbuild.services sys);
    fun cid -> Hashtbl.find_opt tbl cid
  in
  let counters : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let counter iface =
    match Hashtbl.find_opt counters iface with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace counters iface r;
        r
  in
  let armed =
    ref
      (List.filter_map
         (function
           | Plan.Flip { fl_service; fl_nth; fl_reg; fl_bit; fl_at_pm } ->
               let reg =
                 match Reg.of_string fl_reg with
                 | Some r -> r
                 | None -> Reg.EAX
               in
               Some
                 (A_flip
                    {
                      service = fl_service;
                      nth = fl_nth;
                      reg;
                      bit = fl_bit;
                      at_pm = fl_at_pm;
                    })
           | Plan.Crash { cr_service; cr_nth } ->
               Some
                 (A_crash
                    { service = cr_service; nth = cr_nth; detector = "dst-crash" })
           | Plan.Double { db_service; db_nth; db_gap } ->
               Some (A_double1 { service = db_service; nth = db_nth; gap = db_gap })
           | Plan.Storage_write _ | Plan.Perturb _ -> None)
         plan)
  in
  let total_dispatches = ref 0 in
  let hook sim cid fn =
    match iface_of cid with
    | None -> ()
    | Some iface -> (
        incr total_dispatches;
        if !total_dispatches > dispatch_budget then
          failwith "dst-dispatch-budget: execution did not converge";
        let c = counter iface in
        incr c;
        (* a pending Restart op crashes the service at its next dispatch *)
        match Hashtbl.find_opt pending iface with
        | Some detector ->
            Hashtbl.remove pending iface;
            Sim.mark_failed sim cid ~detector;
            raise (Comp.Crash { cid; detector })
        | None ->
            (* fire at most one armed fault per dispatch; >= anchors keep
               faults live when shrinking shifts dispatch counts *)
            let fired = ref None in
            armed :=
              List.filter_map
                (fun a ->
                  if !fired <> None then Some a
                  else
                    match a with
                    | A_flip { service; nth; _ } when service = iface && !c >= nth
                      ->
                        fired := Some a;
                        None
                    | A_crash { service; nth; _ } when service = iface && !c >= nth
                      ->
                        fired := Some a;
                        None
                    | A_double1 { service; nth; gap } when service = iface && !c >= nth
                      ->
                        fired := Some a;
                        Some (A_double2 { service; fire_at = !c + gap })
                    | A_double2 { service; fire_at } when service = iface && !c >= fire_at
                      ->
                        fired := Some a;
                        None
                    | a -> Some a)
                !armed;
            (match !fired with
            | None -> ()
            | Some (A_flip { reg; bit; at_pm; _ }) ->
                let dur =
                  match Sim.usage_of sim cid fn with
                  | Some u -> Sg_kernel.Usage.duration_ns u
                  | None -> 0
                in
                let at = min dur (at_pm * dur / 1000) in
                Injector.apply_flip sim ~cid ~fn ~reg ~bit ~at
                  ~record:(fun _ -> ())
                  ()
            | Some (A_crash { detector; _ }) ->
                Sim.mark_failed sim cid ~detector;
                raise (Comp.Crash { cid; detector })
            | Some (A_double1 _) | Some (A_double2 _) ->
                let detector = "dst-double" in
                Sim.mark_failed sim cid ~detector;
                raise (Comp.Crash { cid; detector })))
  in
  Sim.set_on_dispatch sim (Some hook)

(* ---------- the edge adversary ---------- *)

(* the reply a dropped invocation fabricates: shaped like the declared
   return, so strict client wrappers accept it, but carrying the type's
   initial value (0 / "") — exactly the "fault escapes as a plausible
   interface value" premise the taint pass grades *)
let drop_default ir f =
  if Taint.read_shaped ir f then Comp.VStr ""
  else if f.Ir.f_retval <> None then Comp.VInt 0
  else
    match f.Ir.f_ret with Some "long" -> Comp.VInt 0 | _ -> Comp.VUnit

(* Resolve the first Perturb of the plan against the *builtin* IR (the
   adversary grades the shipped verdict table, so mutant SUTs still
   perturb the pristine edge). An unresolvable target — unknown
   interface, function or field — yields no adversary: the scenario
   degrades to its fault-free baseline rather than failing. *)
let adversary_of_plan plan =
  match
    List.find_map
      (function
        | Plan.Perturb { pb_iface; pb_fn; pb_field; pb_nth; pb_every; pb_walk }
          ->
            Some (pb_iface, pb_fn, pb_field, pb_nth, pb_every, pb_walk)
        | _ -> None)
      plan
  with
  | None -> None
  | Some (pb_iface, pb_fn, pb_field, pb_nth, pb_every, pb_walk) ->
      if not (List.mem pb_iface Compiler.builtin_names) then None
      else
        let ir = (Compiler.builtin pb_iface).Compiler.a_ir in
        Option.bind (Ir.func ir pb_fn) (fun f ->
            let action =
              match pb_field with
              | "ret" -> Some Adversary.Corrupt_ret
              | "@drop" -> Some (Adversary.Drop (drop_default ir f))
              | "@dup" -> Some Adversary.Dup
              | "@reorder" -> Some Adversary.Reorder
              | name ->
                  let rec arg i = function
                    | [] -> None
                    | p :: rest ->
                        if p.Superglue.Ast.pa_name = name then
                          Some (Adversary.Corrupt_arg i)
                        else arg (i + 1) rest
                  in
                  arg 0 f.Ir.f_params
            in
            Option.map
              (fun action ->
                let mode =
                  if pb_every then Adversary.Every else Adversary.Once
                in
                let phase =
                  if pb_walk then Adversary.In_walk else Adversary.Live
                in
                Adversary.make ~mode ~phase ~iface:pb_iface ~fn:pb_fn ~action
                  ~nth:pb_nth ())
              action)

let storage_nths plan =
  List.filter_map
    (function Plan.Storage_write { sw_nth } -> Some sw_nth | _ -> None)
    plan

(* ---------- the op interpreter ---------- *)

type ctx = {
  x_sys : Sysbuild.system;
  x_pending : (string, string) Hashtbl.t;
  x_errors : string list ref;
  x_fds : (string, int) Hashtbl.t;  (* open RamFS descriptors, by path *)
  mutable x_fd_order : string list;  (* oldest first, for cap eviction *)
  x_model : (string, char) Hashtbl.t;  (* expected byte at offset 0 *)
  mutable x_vslot : int;  (* next free mm vaddr slot *)
  mutable x_sched_created : bool;
  mutable x_helper : int;  (* helper naming counter *)
}

let port ctx iface =
  ctx.x_sys.Sysbuild.sys_port ~client:ctx.x_sys.Sysbuild.sys_app1 ~iface

let err ctx fmt = Printf.ksprintf (fun m -> ctx.x_errors := m :: !(ctx.x_errors)) fmt

let spin_wait sim ~what cond =
  let spins = ref 0 in
  while not (cond ()) do
    incr spins;
    if !spins > spin_limit then
      failwith (Printf.sprintf "dst-spin-guard: %s made no progress" what);
    Sim.yield sim
  done

let helper_name ctx base =
  ctx.x_helper <- ctx.x_helper + 1;
  Printf.sprintf "%s%d" base ctx.x_helper

(* --- RamFS descriptor budget: keep live fds within the interface's
   declared desc_table_cap, evicting the oldest open path, so generated
   workloads drive the table *to* the cap but never past the state the
   static bound was computed for --- *)

let fs_close ctx sim path =
  match Hashtbl.find_opt ctx.x_fds path with
  | None -> ()
  | Some fd ->
      Ramfs.trelease (port ctx "fs") sim ~fd;
      Hashtbl.remove ctx.x_fds path;
      ctx.x_fd_order <- List.filter (fun p -> p <> path) ctx.x_fd_order

let fs_open ctx sim path =
  match Hashtbl.find_opt ctx.x_fds path with
  | Some fd -> fd
  | None ->
      while Hashtbl.length ctx.x_fds >= pristine_fs_cap do
        match ctx.x_fd_order with
        | oldest :: _ -> fs_close ctx sim oldest
        | [] -> failwith "dst: fd budget inconsistent"
      done;
      let fd = Ramfs.tsplit (port ctx "fs") sim ~parent:Ramfs.root_fd ~name:path in
      Hashtbl.replace ctx.x_fds path fd;
      ctx.x_fd_order <- ctx.x_fd_order @ [ path ];
      fd

let ensure_sched_created ctx sim =
  if not ctx.x_sched_created then begin
    ctx.x_sched_created <- true;
    Sched.create (port ctx "sched") sim ~tid:(Sim.current_tid sim) ~prio:5
  end

let exec_sched ctx sim ~rounds =
  ensure_sched_created ctx sim;
  let driver_tid = Sim.current_tid sim in
  let progress = ref 0 in
  let helper_done = ref false in
  let p = port ctx "sched" in
  let _ =
    Sim.spawn sim ~prio:5 ~name:(helper_name ctx "dst-waker")
      ~home:ctx.x_sys.Sysbuild.sys_app1
      (fun sim ->
        for k = 1 to rounds do
          ignore (Sched.wakeup p sim ~tid:driver_tid);
          (* strict handshake: never deliver a second wakeup until the
             previous block completed, so no latched wakeup is lost *)
          spin_wait sim ~what:"sched wakeup handshake" (fun () -> !progress >= k)
        done;
        helper_done := true)
  in
  for k = 1 to rounds do
    ignore (Sched.blk p sim ~tid:driver_tid);
    progress := k
  done;
  spin_wait sim ~what:"sched helper completion" (fun () -> !helper_done)

let exec_mm ctx sim ~fanout =
  let app2 = ctx.x_sys.Sysbuild.sys_app2 in
  let p = port ctx "mm" in
  let v = 0x1000 * ctx.x_vslot in
  ctx.x_vslot <- ctx.x_vslot + fanout + 1;
  Mm.get_page p sim ~vaddr:v;
  for k = 1 to fanout do
    Mm.alias_page p sim ~svaddr:v ~dst:app2 ~dvaddr:(v + (0x1000 * k))
  done;
  let n = Mm.release_page p sim ~vaddr:v in
  if n <> fanout + 1 then
    err ctx "mm: revoked %d mappings at %#x, expected %d" n v (fanout + 1)

let exec_fs_write ctx sim ~path ~byte =
  let p = port ctx "fs" in
  let name = Gen.path_name path in
  let fd = fs_open ctx sim name in
  let b = Char.chr (Char.code 'a' + (byte mod 26)) in
  ignore (Ramfs.tlseek p sim ~fd ~off:0);
  ignore (Ramfs.twrite p sim ~fd ~data:(String.make 1 b));
  Hashtbl.replace ctx.x_model name b

let exec_fs_read ctx sim ~path =
  let p = port ctx "fs" in
  let name = Gen.path_name path in
  let fd = fs_open ctx sim name in
  ignore (Ramfs.tlseek p sim ~fd ~off:0);
  let got = Ramfs.tread p sim ~fd ~len:1 in
  match Hashtbl.find_opt ctx.x_model name with
  | None -> ()  (* never written: nothing to predict *)
  | Some b ->
      if got <> String.make 1 b then
        err ctx "fs: %s read back %S, expected %C" name got b

let exec_lock ctx sim ~cycles ~holds =
  let p = port ctx "lock" in
  let id = Lock.alloc p sim in
  let in_cs = ref 0 in
  let contender_done = ref false in
  let cycle sim =
    for _ = 1 to cycles do
      Lock.take p sim id;
      incr in_cs;
      if !in_cs <> 1 then
        err ctx "lock: %d threads in the critical section" !in_cs;
      for _ = 1 to holds do
        Sim.yield sim  (* hold the lock across reschedules *)
      done;
      decr in_cs;
      Lock.release p sim id;
      Sim.yield sim
    done
  in
  let _ =
    Sim.spawn sim ~prio:5 ~name:(helper_name ctx "dst-contender")
      ~home:ctx.x_sys.Sysbuild.sys_app1
      (fun sim ->
        cycle sim;
        contender_done := true)
  in
  cycle sim;
  spin_wait sim ~what:"lock contender completion" (fun () -> !contender_done);
  Lock.free p sim id

let exec_evt ctx sim ~triggers =
  let app1 = ctx.x_sys.Sysbuild.sys_app1
  and app2 = ctx.x_sys.Sysbuild.sys_app2 in
  let p1 = port ctx "evt" in
  let p2 = ctx.x_sys.Sysbuild.sys_port ~client:app2 ~iface:"evt" in
  let parent = Event.split p1 sim ~compid:app1 ~parent:0 ~grp:1 in
  let child_id = ref None in
  let waiter_done = ref false in
  let _ =
    Sim.spawn sim ~prio:5 ~name:(helper_name ctx "dst-waiter") ~home:app2
      (fun sim ->
        (* the child's parent descriptor was created by app1: the
           cross-component dependency (XCParent) *)
        let child = Event.split p2 sim ~compid:app2 ~parent ~grp:1 in
        child_id := Some child;
        for _ = 1 to triggers do
          Event.wait p2 sim ~compid:app2 child
        done;
        waiter_done := true;
        Event.free p2 sim ~compid:app2 child)
  in
  spin_wait sim ~what:"evt child creation" (fun () -> !child_id <> None);
  let child = Option.get !child_id in
  (* At-least-once delivery: pending trigger counts are server runtime
     state the interface spec does not track, so a crash between a
     trigger and its consumption legitimately loses the count — the
     driver retries until the waiter is through (bounded by the spin
     guard, which turns a recovery bug starving the waiter into a
     deterministic failure). Outcome errors are ignored: a retried
     trigger can hit EINVAL when it races the waiter's free. *)
  let spins = ref 0 in
  while not !waiter_done do
    incr spins;
    if !spins > spin_limit then
      failwith "dst-spin-guard: evt waiter made no progress";
    ignore
      (Sg_os.Port.call p1 sim "evt_trigger"
         [ Comp.VInt app1; Comp.VInt child ]);
    Sim.yield sim
  done;
  Event.free p1 sim ~compid:app1 parent

(* Recovery delays are µs-scale (bounded by the Wcr walk bound), so a
   generous fixed slack cleanly separates organic crash/recovery
   stalls from a rebound timer period: the adversary's corruption
   offset is 0x2000000 ns ≈ 33.5 ms per wait, two orders of magnitude
   past the slack. *)
let timer_deadline_slack_ns = 16_000_000

let exec_timer ctx sim ~periods ~period_ns =
  let p = port ctx "timer" in
  let id = Timer.create p sim ~period_ns in
  let start_ns = Sim.now sim in
  for _ = 1 to periods do
    ignore (Timer.wait p sim id)
  done;
  let elapsed = Sim.now sim - start_ns in
  if elapsed > (periods * period_ns) + timer_deadline_slack_ns then
    err ctx "timer: %d period(s) of %dns elapsed %dns — period rebound"
      periods period_ns elapsed;
  Timer.free p sim id

let exec_burst ctx sim ~count =
  let n = min count pristine_fs_cap in
  let paths = List.init n (fun i -> Printf.sprintf "b%d" i) in
  List.iter (fun path -> ignore (fs_open ctx sim path)) paths;
  List.iter (fun path -> fs_close ctx sim path) paths

(* the minimal cycle that makes a pending Restart crash fire and drives
   the subsequent recovery: one create/terminate pair on the service *)
let exec_touch ctx sim service =
  match service with
  | "sched" ->
      ensure_sched_created ctx sim;
      ignore (Sched.wakeup (port ctx "sched") sim ~tid:(Sim.current_tid sim))
  | "mm" -> exec_mm ctx sim ~fanout:1
  | "fs" ->
      let _ = fs_open ctx sim "rst" in
      fs_close ctx sim "rst"
  | "lock" ->
      let p = port ctx "lock" in
      let id = Lock.alloc p sim in
      Lock.free p sim id
  | "evt" ->
      let p = port ctx "evt" in
      let app1 = ctx.x_sys.Sysbuild.sys_app1 in
      let id = Event.split p sim ~compid:app1 ~parent:0 ~grp:1 in
      Event.free p sim ~compid:app1 id
  | "timer" ->
      let p = port ctx "timer" in
      let id = Timer.create p sim ~period_ns:100_000 in
      Timer.free p sim id
  | s -> err ctx "restart: unknown service %s" s

let exec_op ctx sim op =
  match op with
  | Gen.Sched_pingpong { rounds } -> exec_sched ctx sim ~rounds
  | Gen.Mm_cycle { fanout } -> exec_mm ctx sim ~fanout
  | Gen.Fs_open { path } -> ignore (fs_open ctx sim (Gen.path_name path))
  | Gen.Fs_write { path; byte } -> exec_fs_write ctx sim ~path ~byte
  | Gen.Fs_read { path } -> exec_fs_read ctx sim ~path
  | Gen.Fs_close { path } -> fs_close ctx sim (Gen.path_name path)
  | Gen.Lock_cycle { cycles; holds } -> exec_lock ctx sim ~cycles ~holds
  | Gen.Evt_chain { triggers } -> exec_evt ctx sim ~triggers
  | Gen.Timer_tick { periods; period_ns } -> exec_timer ctx sim ~periods ~period_ns
  | Gen.Desc_burst { count } -> exec_burst ctx sim ~count
  | Gen.Restart { service } ->
      Hashtbl.replace ctx.x_pending service "dst-restart";
      exec_touch ctx sim service

let setup_ops sys pending ops =
  let ctx =
    {
      x_sys = sys;
      x_pending = pending;
      x_errors = ref [];
      x_fds = Hashtbl.create 8;
      x_fd_order = [];
      x_model = Hashtbl.create 8;
      x_vslot = 1;
      x_sched_created = false;
      x_helper = 0;
    }
  in
  let _ =
    Sim.spawn sys.Sysbuild.sys_sim ~prio:5 ~name:"dst-driver"
      ~home:sys.Sysbuild.sys_app1
      (fun sim -> List.iter (exec_op ctx sim) ops)
  in
  fun () -> List.rev !(ctx.x_errors)

(* ---------- the oracle ---------- *)

let injected_outcome events cid outcome =
  (* [events] is newest-first: the most recent injection explains the
     fatal iff it targeted the fatal component with the fatal outcome *)
  let rec last = function
    | [] -> None
    | { Sg_obs.Event.kind = Sg_obs.Event.Inject { cid = icid; outcome = ioc; _ }; _ }
      :: _ ->
        Some (icid, ioc)
    | _ :: rest -> last rest
  in
  match last events with
  | Some (icid, ioc) -> icid = cid && ioc = outcome
  | None -> false

let fatal_tolerated events = function
  | Sim.Fatal (Sim.Fatal_segfault cid) -> injected_outcome events cid "segfault"
  | Sim.Fatal (Sim.Fatal_propagated cid) ->
      injected_outcome events cid "propagated"
  | Sim.Fatal (Sim.Fatal_hang cid) -> injected_outcome events cid "hang"
  | _ -> false

let bound_of sys cid =
  let iface =
    List.find_map
      (fun (iface, c) -> if c = cid then Some iface else None)
      (Sysbuild.services sys)
  in
  match iface with
  | None -> None
  | Some iface ->
      Wcr.bound_for pristine_report ~crashed:iface ~client:iface

let iface_name sys cid =
  match
    List.find_map
      (fun (iface, c) -> if c = cid then Some iface else None)
      (Sysbuild.services sys)
  with
  | Some iface -> iface
  | None -> string_of_int cid

let run ?(sut = Pristine) sc =
  let mode = mode_of_sut sut in
  let adversary = adversary_of_plan sc.sc_plan in
  let sys = Sysbuild.build ~seed:sc.sc_seed ?adversary mode in
  let sim = sys.Sysbuild.sys_sim in
  let events = ref [] in
  Sg_obs.Sink.subscribe (Sim.obs sim) (fun e -> events := e :: !events);
  let epb = Sg_obs.Episode.builder () in
  Sg_obs.Sink.subscribe (Sim.obs sim) (Sg_obs.Episode.feed epb);
  let pending : (string, string) Hashtbl.t = Hashtbl.create 4 in
  install_plan sys sc.sc_plan pending;
  Storage.arm_write_faults sys.Sysbuild.sys_storage
    ~at:(storage_nths sc.sc_plan);
  let check =
    match sc.sc_workload with
    | Ops ops -> setup_ops sys pending ops
    | Classic { iface; iters; knob } ->
        Workloads.setup ~params:(classic_params iface knob) sys ~iface ~iters
  in
  let result = Sim.run sim in
  let stream = List.rev !events in
  let episodes = Sg_obs.Episode.finish epb in
  let verdict =
    let fatal_failure =
      match result with
      | Sim.Completed -> None
      | Sim.Deadlock -> Some "deadlock: all threads blocked"
      | Sim.Fatal f ->
          if fatal_tolerated !events result then None
          else Some (Sim.fatal_to_string f)
    in
    match fatal_failure with
    | Some msg -> Fail_fatal msg
    | None -> (
        let postv = if result = Sim.Completed then check () else [] in
        match postv with
        | _ :: _ -> Fail_postcond postv
        | [] -> (
            let violations =
              Sg_obs.Check.run ~completed:(result = Sim.Completed) stream
            in
            match violations with
            | _ :: _ ->
                Fail_check
                  (List.map
                     (fun v ->
                       Printf.sprintf "seq %d [%s] %s" v.Sg_obs.Check.at_seq
                         v.Sg_obs.Check.rule v.Sg_obs.Check.msg)
                     violations)
            | [] -> (
                match
                  Sg_obs.Episode.over_bound_by ~bound_of:(bound_of sys) episodes
                with
                | [] -> Pass
                | over ->
                    Fail_over_bound
                      (List.map
                         (fun ep ->
                           let iface = iface_name sys ep.Sg_obs.Episode.ep_cid in
                           let bound =
                             Option.value ~default:0
                               (bound_of sys ep.Sg_obs.Episode.ep_cid)
                           in
                           (iface, Sg_obs.Episode.span_ns ep, bound))
                         over))))
  in
  {
    oc_verdict = verdict;
    oc_result = result;
    oc_events = List.length stream;
    oc_storage_faults = Storage.write_faults_hit sys.Sysbuild.sys_storage;
    oc_stream = stream;
    oc_episodes = episodes;
    oc_adversary =
      Option.map
        (fun a ->
          { ao_fired = Adversary.fired a; ao_errors = Adversary.errors a })
        adversary;
  }
