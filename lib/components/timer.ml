module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Ktcb = Sg_kernel.Ktcb
module Kernel = Sg_kernel.Kernel
module Inttbl = Sg_util.Inttbl

let iface = "timer"

type trec = { period_ns : int; mutable next_ns : int; mutable ticks : int }
type state = { mutable timers : trec Inttbl.t; mutable next_id : int }

let dispatch st sim _cid fn args =
  match (fn, args) with
  | "timer_create", [ Comp.VInt period_ns ] ->
      if period_ns <= 0 then Error Comp.EINVAL
      else begin
        let id = st.next_id in
        st.next_id <- id + 1;
        Inttbl.replace st.timers id
          { period_ns; next_ns = Sim.now sim + period_ns; ticks = 0 };
        Ok (Comp.VInt id)
      end
  | "timer_wait", [ Comp.VInt id ] -> (
      match Inttbl.find_opt st.timers id with
      | None -> Error Comp.EINVAL
      | Some r ->
          if r.next_ns > Sim.now sim then Sim.sleep_until sim r.next_ns;
          r.next_ns <- r.next_ns + r.period_ns;
          r.ticks <- r.ticks + 1;
          Ok (Comp.VInt r.ticks))
  | "timer_free", [ Comp.VInt id ] ->
      if Inttbl.mem st.timers id then begin
        Inttbl.remove st.timers id;
        Ok Comp.VUnit
      end
      else Error Comp.EINVAL
  | ("timer_create" | "timer_wait" | "timer_free"), _ -> Error Comp.EINVAL
  | _ -> Error Comp.ENOENT

let image_kb = 44

let spec () =
  let st = { timers = Inttbl.create 4; next_id = 1 } in
  {
    Sim.sc_name = iface;
    sc_image_kb = image_kb;
    sc_init =
      (fun _ _ ->
        st.timers <- Inttbl.create 4;
        st.next_id <- 1);
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch = (fun sim cid fn args -> dispatch st sim cid fn args);
    sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
    sc_usage = Profiles.timer;
  }

(* T0: the timer's sleeping is a kernel facility, so the rebooted timer
   wakes its sleepers directly; they divert and re-wait on demand. *)
let boot_init_t0 sim cid =
  List.iter
    (fun tcb ->
      match tcb.Ktcb.state with
      | Ktcb.Sleeping _ -> ignore (Sim.wakeup sim tcb.Ktcb.tid)
      | Ktcb.Runnable | Ktcb.Blocked _ | Ktcb.Exited -> ())
    (Ktcb.threads_inside (Sim.kernel sim).Kernel.threads cid)

let create port sim ~period_ns =
  Comp.int_exn (Port.call_exn port sim "timer_create" [ Comp.VInt period_ns ])

let wait port sim id =
  Comp.int_exn (Port.call_exn port sim "timer_wait" [ Comp.VInt id ])

let free port sim id =
  Comp.unit_exn (Port.call_exn port sim "timer_free" [ Comp.VInt id ])
