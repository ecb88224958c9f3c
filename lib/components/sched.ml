module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Ktcb = Sg_kernel.Ktcb
module Kernel = Sg_kernel.Kernel
module Inttbl = Sg_util.Inttbl

let iface = "sched"

type trec = { tr_prio : int; mutable tr_blocked : bool; mutable tr_latch : int }

type state = { mutable table : trec Inttbl.t }

let dispatch st sim _cid fn args =
  match (fn, args) with
  | "sched_create", [ Comp.VInt tid; Comp.VInt prio ] ->
      Inttbl.replace st.table tid
        { tr_prio = prio; tr_blocked = false; tr_latch = 0 };
      Ok (Comp.VInt tid)
  | "sched_blk", [ Comp.VInt tid ] -> (
      if tid <> Sim.current_tid sim then Error Comp.EPERM
      else
        match Inttbl.find_opt st.table tid with
        | None -> Error Comp.EINVAL
        | Some r ->
            if r.tr_latch > 0 then begin
              r.tr_latch <- r.tr_latch - 1;
              Ok (Comp.VInt 0)
            end
            else begin
              r.tr_blocked <- true;
              Sim.block sim;
              r.tr_blocked <- false;
              Ok (Comp.VInt 1)
            end)
  | "sched_wakeup", [ Comp.VInt tid ] -> (
      match Inttbl.find_opt st.table tid with
      | None -> Error Comp.EINVAL
      | Some r ->
          if r.tr_blocked then begin
            r.tr_blocked <- false;
            (* the bookkeeping can be stale if the thread was diverted out
               of its block by another component's reboot: fall back to a
               latch when the kernel says the thread is not blocked *)
            if Sim.wakeup sim tid then Ok (Comp.VInt 1)
            else begin
              r.tr_latch <- r.tr_latch + 1;
              Ok (Comp.VInt 0)
            end
          end
          else begin
            r.tr_latch <- r.tr_latch + 1;
            Ok (Comp.VInt 0)
          end)
  | "sched_exit", [ Comp.VInt tid ] ->
      Inttbl.remove st.table tid;
      Ok Comp.VUnit
  | ("sched_create" | "sched_blk" | "sched_wakeup" | "sched_exit"), _ ->
      Error Comp.EINVAL
  | _ -> Error Comp.ENOENT

let reflect sim _cid fn args =
  match (fn, args) with
  | "blocked", [] ->
      let tids =
        (Sim.kernel sim).Kernel.threads |> Ktcb.all
        |> List.filter_map (fun tcb ->
               match tcb.Ktcb.state with
               | Ktcb.Blocked _ -> Some (Comp.VInt tcb.Ktcb.tid)
               | Ktcb.Runnable | Ktcb.Sleeping _ | Ktcb.Exited -> None)
      in
      Ok (Comp.VList tids)
  | _ -> Error Comp.EINVAL

let image_kb = 84

let spec () =
  let st = { table = Inttbl.create 8 } in
  {
    Sim.sc_name = iface;
    sc_image_kb = image_kb;
    sc_init = (fun _ _ -> st.table <- Inttbl.create 8);
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch = (fun sim cid fn args -> dispatch st sim cid fn args);
    sc_reflect = (fun sim cid fn args -> reflect sim cid fn args);
    sc_usage = Profiles.sched;
  }

(* T0: the scheduler is the root of the blocking dependency chain, so on
   reboot it must wake every kernel-blocked thread itself (its "server"
   is the kernel). Each woken thread is diverted back to its client stub
   and re-blocks on demand at its own priority. *)
let boot_init_t0 sim _cid =
  List.iter
    (fun tcb ->
      match tcb.Ktcb.state with
      | Ktcb.Blocked _ -> ignore (Sim.wakeup sim tcb.Ktcb.tid)
      | Ktcb.Runnable | Ktcb.Sleeping _ | Ktcb.Exited -> ())
    (Ktcb.all (Sim.kernel sim).Kernel.threads)

let create port sim ~tid ~prio =
  ignore (Port.call_exn port sim "sched_create" [ Comp.VInt tid; Comp.VInt prio ])

let blk port sim ~tid =
  match Port.call_exn port sim "sched_blk" [ Comp.VInt tid ] with
  | Comp.VInt 1 -> true
  | _ -> false

let wakeup port sim ~tid =
  match Port.call_exn port sim "sched_wakeup" [ Comp.VInt tid ] with
  | Comp.VInt 1 -> true
  | _ -> false

let exit port sim ~tid =
  ignore (Port.call_exn port sim "sched_exit" [ Comp.VInt tid ])
