module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Ktcb = Sg_kernel.Ktcb
module Kernel = Sg_kernel.Kernel
module Inttbl = Sg_util.Inttbl

let iface = "lock"

type lrec = { mutable holder : int option; mutable waiters : int list }
type state = { mutable locks : lrec Inttbl.t; mutable next_id : int }

let sched_of port_cell =
  match !port_cell with
  | Some p -> p
  | None -> invalid_arg "lock: scheduler port not wired"

let dispatch st sched_cell sim _cid fn args =
  match (fn, args) with
  | "lock_alloc", [] ->
      let id = st.next_id in
      st.next_id <- id + 1;
      Inttbl.replace st.locks id { holder = None; waiters = [] };
      Ok (Comp.VInt id)
  | "lock_take", [ Comp.VInt id ] -> (
      match Inttbl.find_opt st.locks id with
      | None -> Error Comp.EINVAL
      | Some l ->
          let me = Sim.current_tid sim in
          let sched = sched_of sched_cell in
          let prio = (Sim.current_tcb sim).Ktcb.prio in
          (* non-reentrant: a thread whose recovery walk proxy-acquired
             the lock contends here until the logical holder releases *)
          let rec acquire () =
            match l.holder with
            | None -> l.holder <- Some me
            | Some _ ->
                if not (List.mem me l.waiters) then
                  l.waiters <- l.waiters @ [ me ];
                Sched.create sched sim ~tid:me ~prio;
                ignore (Sched.blk sched sim ~tid:me);
                acquire ()
          in
          acquire ();
          Ok Comp.VUnit)
  | "lock_release", [ Comp.VInt id ] -> (
      match Inttbl.find_opt st.locks id with
      | None -> Error Comp.EINVAL
      | Some l -> (
          l.holder <- None;
          match l.waiters with
          | [] -> Ok Comp.VUnit
          | w :: rest ->
              l.waiters <- rest;
              let sched = sched_of sched_cell in
              ignore (Sched.wakeup sched sim ~tid:w);
              Ok Comp.VUnit))
  | "lock_free", [ Comp.VInt id ] ->
      if Inttbl.mem st.locks id then begin
        Inttbl.remove st.locks id;
        Ok Comp.VUnit
      end
      else Error Comp.EINVAL
  | ("lock_alloc" | "lock_take" | "lock_release" | "lock_free"), _ ->
      Error Comp.EINVAL
  | _ -> Error Comp.ENOENT

let image_kb = 52

let spec ~sched_port () =
  let st = { locks = Inttbl.create 4; next_id = 1 } in
  {
    Sim.sc_name = iface;
    sc_image_kb = image_kb;
    sc_init =
      (fun _ _ ->
        st.locks <- Inttbl.create 4;
        st.next_id <- 1);
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch = (fun sim cid fn args -> dispatch st sched_port sim cid fn args);
    sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
    sc_usage = Profiles.lock;
  }

let boot_init_t0 ~sched_port sim cid =
  let sched = sched_of sched_port in
  List.iter
    (fun tcb ->
      match tcb.Ktcb.state with
      | Ktcb.Blocked _ ->
          (* the scheduler still holds the block record (the lock, not
             the scheduler, crashed), so a plain wakeup diverts them *)
          ignore (Sched.wakeup sched sim ~tid:tcb.Ktcb.tid)
      | Ktcb.Runnable | Ktcb.Sleeping _ | Ktcb.Exited -> ())
    (Ktcb.threads_inside (Sim.kernel sim).Kernel.threads cid)

let alloc port sim = Comp.int_exn (Port.call_exn port sim "lock_alloc" [])
let take port sim id = Comp.unit_exn (Port.call_exn port sim "lock_take" [ Comp.VInt id ])

let release port sim id =
  Comp.unit_exn (Port.call_exn port sim "lock_release" [ Comp.VInt id ])

let free port sim id = Comp.unit_exn (Port.call_exn port sim "lock_free" [ Comp.VInt id ])
