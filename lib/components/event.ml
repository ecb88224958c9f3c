module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Ktcb = Sg_kernel.Ktcb
module Kernel = Sg_kernel.Kernel
module Inttbl = Sg_util.Inttbl

let iface = "evt"

type erec = {
  er_parent : int;  (** 0 = none *)
  er_grp : int;
  mutable er_waiters : int list;
  mutable er_pending : int;
}

type state = { mutable events : erec Inttbl.t; mutable next_id : int }

let sched_of cell =
  match !cell with
  | Some p -> p
  | None -> invalid_arg "event: scheduler port not wired"

let dispatch st sched_cell sim _cid fn args =
  match (fn, args) with
  | "evt_split", [ Comp.VInt _compid; Comp.VInt parent; Comp.VInt grp ] ->
      if parent <> 0 && not (Inttbl.mem st.events parent) then
        Error Comp.EINVAL
      else begin
        let id = st.next_id in
        st.next_id <- id + 1;
        Inttbl.replace st.events id
          { er_parent = parent; er_grp = grp; er_waiters = []; er_pending = 0 };
        Ok (Comp.VInt id)
      end
  | "evt_wait", [ Comp.VInt _compid; Comp.VInt id ] -> (
      match Inttbl.find_opt st.events id with
      | None -> Error Comp.EINVAL
      | Some e ->
          let me = Sim.current_tid sim in
          let sched = sched_of sched_cell in
          let prio = (Sim.current_tcb sim).Ktcb.prio in
          let rec await () =
            if e.er_pending > 0 then e.er_pending <- e.er_pending - 1
            else begin
              if not (List.mem me e.er_waiters) then
                e.er_waiters <- e.er_waiters @ [ me ];
              Sched.create sched sim ~tid:me ~prio;
              ignore (Sched.blk sched sim ~tid:me);
              await ()
            end
          in
          await ();
          Ok (Comp.VInt 0))
  | "evt_trigger", [ Comp.VInt _compid; Comp.VInt id ] -> (
      match Inttbl.find_opt st.events id with
      | None -> Error Comp.EINVAL
      | Some e -> (
          (* counting semantics: the trigger is recorded as pending and a
             waiter, if any, is woken to consume it *)
          e.er_pending <- e.er_pending + 1;
          match e.er_waiters with
          | [] -> Ok (Comp.VInt 0)
          | w :: rest ->
              e.er_waiters <- rest;
              let sched = sched_of sched_cell in
              ignore (Sched.wakeup sched sim ~tid:w);
              Ok (Comp.VInt 1)))
  | "evt_free", [ Comp.VInt _compid; Comp.VInt id ] ->
      if Inttbl.mem st.events id then begin
        Inttbl.remove st.events id;
        Ok Comp.VUnit
      end
      else Error Comp.EINVAL
  | "__sg_seed_ids", [ Comp.VInt n ] ->
      (* recovery accommodation: restart the global id namespace past
         every id the storage registry still remembers *)
      st.next_id <- max st.next_id n;
      Ok Comp.VUnit
  | ("evt_split" | "evt_wait" | "evt_trigger" | "evt_free"), _ ->
      Error Comp.EINVAL
  | _ -> Error Comp.ENOENT

let image_kb = 60

let spec ~sched_port () =
  let st = { events = Inttbl.create 4; next_id = 1 } in
  {
    Sim.sc_name = iface;
    sc_image_kb = image_kb;
    sc_init =
      (fun _ _ ->
        st.events <- Inttbl.create 4;
        st.next_id <- 1);
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch = (fun sim cid fn args -> dispatch st sched_port sim cid fn args);
    sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
    sc_usage = Profiles.event;
  }

let boot_init_t0 ~sched_port sim cid =
  let sched = sched_of sched_port in
  List.iter
    (fun tcb ->
      match tcb.Ktcb.state with
      | Ktcb.Blocked _ -> ignore (Sched.wakeup sched sim ~tid:tcb.Ktcb.tid)
      | Ktcb.Runnable | Ktcb.Sleeping _ | Ktcb.Exited -> ())
    (Ktcb.threads_inside (Sim.kernel sim).Kernel.threads cid)

let split port sim ~compid ~parent ~grp =
  Comp.int_exn
    (Port.call_exn port sim "evt_split"
       [ Comp.VInt compid; Comp.VInt parent; Comp.VInt grp ])

let wait port sim ~compid id =
  ignore (Port.call_exn port sim "evt_wait" [ Comp.VInt compid; Comp.VInt id ])

let trigger port sim ~compid id =
  ignore (Port.call_exn port sim "evt_trigger" [ Comp.VInt compid; Comp.VInt id ])

let free port sim ~compid id =
  Comp.unit_exn (Port.call_exn port sim "evt_free" [ Comp.VInt compid; Comp.VInt id ])
