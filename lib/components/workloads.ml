module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port

let all_ifaces = Sysbuild.names

(* Two threads ping-pong, blocking and waking each other in turn. *)
let setup_sched sys ~iters =
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"sched" in
  let a_blocks = ref 0 and b_blocks = ref 0 in
  let tid_a = ref 0 and tid_b = ref 0 in
  tid_a :=
    Sim.spawn sim ~prio:5 ~name:"ping" ~home:app (fun sim ->
        Sched.create port sim ~tid:!tid_a ~prio:5;
        for _ = 1 to iters do
          ignore (Sched.blk port sim ~tid:!tid_a);
          incr a_blocks;
          ignore (Sched.wakeup port sim ~tid:!tid_b)
        done);
  tid_b :=
    Sim.spawn sim ~prio:5 ~name:"pong" ~home:app (fun sim ->
        Sched.create port sim ~tid:!tid_b ~prio:5;
        for _ = 1 to iters do
          ignore (Sched.wakeup port sim ~tid:!tid_a);
          ignore (Sched.blk port sim ~tid:!tid_b);
          incr b_blocks
        done);
  fun () ->
    List.concat
      [
        (if !a_blocks <> iters then
           [ Printf.sprintf "sched: ping completed %d/%d blocks" !a_blocks iters ]
         else []);
        (if !b_blocks <> iters then
           [ Printf.sprintf "sched: pong completed %d/%d blocks" !b_blocks iters ]
         else []);
      ]

(* Pages granted, aliased into a different component, then revoked. *)
let setup_mm sys ~knob ~iters =
  let sim = sys.Sysbuild.sys_sim in
  let app1 = sys.Sysbuild.sys_app1 and app2 = sys.Sysbuild.sys_app2 in
  let port = sys.Sysbuild.sys_port ~client:app1 ~iface:"mm" in
  let fanout = Option.value knob ~default:1 in
  let expect = fanout + 1 in
  let revoked = ref 0 in
  let errors = ref [] in
  let _ =
    Sim.spawn sim ~prio:5 ~name:"mm-wl" ~home:app1 (fun sim ->
        for i = 1 to iters do
          let v = 0x1000 * i * expect in
          Mm.get_page port sim ~vaddr:v;
          for k = 1 to fanout do
            Mm.alias_page port sim ~svaddr:v ~dst:app2 ~dvaddr:(v + (0x1000 * k))
          done;
          let n = Mm.release_page port sim ~vaddr:v in
          revoked := !revoked + n;
          if n <> expect then
            errors :=
              Printf.sprintf "mm: iteration %d revoked %d mappings, expected %d"
                i n expect
              :: !errors
        done)
  in
  fun () ->
    let kernel = Sim.kernel sim in
    let residual cid =
      List.length (Sg_kernel.Frames.mappings_of kernel.Sg_kernel.Kernel.frames ~cid)
    in
    List.concat
      [
        !errors;
        (if !revoked <> expect * iters then
           [ Printf.sprintf "mm: revoked %d mappings, expected %d" !revoked
               (expect * iters) ]
         else []);
        (if residual app1 <> 0 then
           [ Printf.sprintf "mm: %d residual kernel mappings in app1" (residual app1) ]
         else []);
        (if residual app2 <> 0 then
           [ Printf.sprintf "mm: %d residual kernel mappings in app2" (residual app2) ]
         else []);
      ]

(* A file is opened, a byte written to it, read from it, then closed. *)
let setup_fs sys ~knob ~iters =
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"fs" in
  let path =
    match knob with None -> "bench.dat" | Some k -> Printf.sprintf "f%d" k
  in
  let good = ref 0 in
  let errors = ref [] in
  let _ =
    Sim.spawn sim ~prio:5 ~name:"fs-wl" ~home:app (fun sim ->
        for i = 1 to iters do
          let fd =
            Ramfs.tsplit port sim ~parent:Ramfs.root_fd ~name:path
          in
          let byte = String.make 1 (Char.chr (Char.code 'a' + (i mod 26))) in
          ignore (Ramfs.twrite port sim ~fd ~data:byte);
          ignore (Ramfs.tlseek port sim ~fd ~off:0);
          let back = Ramfs.tread port sim ~fd ~len:1 in
          if back = byte then incr good
          else
            errors :=
              Printf.sprintf "fs: iteration %d read %S, expected %S" i back byte
              :: !errors;
          Ramfs.trelease port sim ~fd
        done)
  in
  fun () ->
    List.concat
      [
        !errors;
        (if !good <> iters then
           [ Printf.sprintf "fs: %d/%d read-backs verified" !good iters ]
         else []);
      ]

(* One thread holds a lock another contends; mutual exclusion monitored. *)
let setup_lock sys ~knob ~iters =
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"lock" in
  let n_contenders = 1 + Option.value knob ~default:1 in
  let lock_id = ref None in
  let in_cs = ref 0 in
  let violations = ref [] in
  let completed = ref 0 in
  let contender name =
    Sim.spawn sim ~prio:5 ~name ~home:app (fun sim ->
        let rec get_lock () =
          match !lock_id with
          | Some id -> id
          | None ->
              Sim.yield sim;
              get_lock ()
        in
        let id =
          match !lock_id with
          | Some id -> id
          | None ->
              let id = Lock.alloc port sim in
              lock_id := Some id;
              id
        in
        ignore (get_lock ());
        for _ = 1 to iters do
          Lock.take port sim id;
          incr in_cs;
          if !in_cs <> 1 then
            violations :=
              Printf.sprintf "lock: %d threads in the critical section" !in_cs
              :: !violations;
          Sim.yield sim;  (* hold the lock across a reschedule *)
          decr in_cs;
          Lock.release port sim id;
          Sim.yield sim
        done;
        incr completed)
  in
  let _ = contender "holder" in
  for k = 2 to n_contenders do
    let _ =
      contender (if k = 2 then "contender" else Printf.sprintf "contender%d" k)
    in
    ()
  done;
  fun () ->
    List.concat
      [
        !violations;
        (if !completed <> n_contenders then
           [ Printf.sprintf "lock: %d/%d threads completed" !completed
               n_contenders ]
         else []);
      ]

(* A thread blocks on an event that a thread in a different component
   triggers; the event's parent was created by the first component. *)
let setup_evt sys ~knob ~iters =
  let sim = sys.Sysbuild.sys_sim in
  let app1 = sys.Sysbuild.sys_app1 and app2 = sys.Sysbuild.sys_app2 in
  let port1 = sys.Sysbuild.sys_port ~client:app1 ~iface:"evt" in
  let port2 = sys.Sysbuild.sys_port ~client:app2 ~iface:"evt" in
  let burst = Option.value knob ~default:1 in
  let parent_id = ref None in
  let child_id = ref None in
  let waits = ref 0 and triggers = ref 0 in
  let _ =
    Sim.spawn sim ~prio:5 ~name:"evt-waiter" ~home:app2 (fun sim ->
        let parent =
          let rec get () =
            match !parent_id with
            | Some id -> id
            | None ->
                Sim.yield sim;
                get ()
          in
          get ()
        in
        (* the child event's parent descriptor was created by app1: a
           cross-component dependency (XCParent) *)
        let child = Event.split port2 sim ~compid:app2 ~parent ~grp:1 in
        child_id := Some child;
        for _ = 1 to iters * burst do
          Event.wait port2 sim ~compid:app2 child;
          incr waits
        done;
        Event.free port2 sim ~compid:app2 child)
  in
  let _ =
    Sim.spawn sim ~prio:5 ~name:"evt-trigger" ~home:app1 (fun sim ->
        parent_id := Some (Event.split port1 sim ~compid:app1 ~parent:0 ~grp:1);
        let child =
          let rec get () =
            match !child_id with
            | Some id -> id
            | None ->
                Sim.yield sim;
                get ()
          in
          get ()
        in
        for _ = 1 to iters do
          (* trigger from a different component than the creator; with a
             burst > 1 the extra triggers latch (counting semantics) *)
          for _ = 1 to burst do
            Event.trigger port1 sim ~compid:app1 child
          done;
          Sim.yield sim
        done;
        (* at-least-once: a crash between a trigger and its consumption
           loses the pending count (evt.sgidl does not track it), so a
           fixed trigger budget can leave the waiter short. Re-trigger
           until the waiter reports done; extra triggers merely latch. *)
        while !waits < iters * burst do
          ignore
            (Port.call port1 sim "evt_trigger"
               [ Comp.VInt app1; Comp.VInt child ]);
          Sim.yield sim
        done;
        incr triggers;
        Event.free port1 sim ~compid:app1 (Option.get !parent_id))
  in
  fun () ->
    List.concat
      [
        (if !waits <> iters * burst then
           [ Printf.sprintf "evt: waiter completed %d/%d waits" !waits
               (iters * burst) ]
         else []);
        (if !triggers <> 1 then [ "evt: trigger thread did not complete" ] else []);
      ]

(* A thread wakes up, then blocks for a certain amount of time,
   periodically. *)
let setup_timer sys ~knob ~iters =
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"timer" in
  let period_ns =
    match knob with None -> 200_000 | Some k -> 50_000 * k
  in
  let ticks = ref 0 in
  let start_ns = ref 0 and end_ns = ref 0 in
  let _ =
    Sim.spawn sim ~prio:5 ~name:"timer-wl" ~home:app (fun sim ->
        start_ns := Sim.now sim;
        let id = Timer.create port sim ~period_ns in
        for _ = 1 to iters do
          ignore (Timer.wait port sim id);
          incr ticks
        done;
        end_ns := Sim.now sim;
        Timer.free port sim id)
  in
  fun () ->
    List.concat
      [
        (if !ticks <> iters then
           [ Printf.sprintf "timer: %d/%d periods elapsed" !ticks iters ]
         else []);
        (if !end_ns - !start_ns < period_ns then
           [ "timer: virtual time did not advance by a period" ]
         else []);
      ]

(* each service reads the shape knob its own way; [None] is the paper's
   fixed shape, the exact instruction sequence of the original §V-B
   workloads, so Table II and the golden traces are unchanged *)
let setups =
  {
    Sysbuild.sched = (fun sys ~knob:_ ~iters -> setup_sched sys ~iters);
    mm = setup_mm;
    fs = setup_fs;
    lock = setup_lock;
    evt = setup_evt;
    timer = setup_timer;
  }

let setup ?knob sys ~iface ~iters =
  (match knob with
  | Some k when k < 1 ->
      invalid_arg (Printf.sprintf "Workloads.setup: knob %d is below 1" k)
  | _ -> ());
  Sysbuild.get setups iface sys ~knob ~iters

let run_storm sys ~iface ~iters ~every ~detector =
  let sim = sys.Sysbuild.sys_sim in
  Sg_obs.Sink.set_retention (Sim.obs sim) Sg_obs.Sink.All;
  let check = setup sys ~iface ~iters in
  Option.iter
    (fun every ->
      let target = Sysbuild.cid_of_iface sys iface in
      let count = ref 0 in
      Sim.set_on_dispatch sim
        (Some
           (fun sim cid _ ->
             if cid = target then begin
               incr count;
               if !count mod every = 0 then begin
                 Sim.mark_failed sim cid ~detector;
                 raise (Comp.Crash { cid; detector })
               end
             end)))
    every;
  match Sim.run sim with
  | Sim.Completed -> (
      match check () with
      | [] -> Ok (Sg_obs.Sink.events (Sim.obs sim))
      | v -> Error ("workload postconditions failed: " ^ String.concat "; " v))
  | r -> Error (Format.asprintf "run ended %a" Sim.pp_run_result r)
