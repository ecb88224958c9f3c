module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Ktcb = Sg_kernel.Ktcb
module Kernel = Sg_kernel.Kernel
module Tracker = Sg_c3.Tracker
module Cstub = Sg_c3.Cstub
module Serverstub = Sg_c3.Serverstub
module Storage = Sg_storage.Storage

(* Fault-detection counters (invalid state-machine transitions), keyed
   by interface name. Stubs on any pool domain bump them: the table is
   only touched under [counters_lock], and each counter is [Atomic]. *)
let counters : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 8
let counters_lock = Mutex.create ()

let counter iface =
  Mutex.protect counters_lock (fun () ->
      match Hashtbl.find_opt counters iface with
      | Some c -> c
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.replace counters iface c;
          c)

let invalid_transitions cfg = Atomic.get (counter cfg.Cstub.cfg_iface)

let default_value ty =
  if Ir.marshal_is_string ty then Comp.VStr "" else Comp.VInt 0

let as_int = function
  | Comp.VInt i -> i
  | Comp.VBool b -> if b then 1 else 0
  | Comp.VUnit | Comp.VStr _ | Comp.VList _ -> 0

let arg_int args i =
  match List.nth_opt args i with Some v -> as_int v | None -> 0

(* The tracked-data capture: every desc_data-attributed parameter is
   recorded under its declared name. *)
let tracked_meta (f : Ir.func) args =
  List.concat
    (List.mapi
       (fun i p ->
         match p.Ast.pa_attr with
         | Ast.ADescData | Ast.ADescDataParent | Ast.ADescNs -> (
             match List.nth_opt args i with
             | Some v -> [ (p.Ast.pa_name, v) ]
             | None -> [])
         | Ast.APlain | Ast.ADesc | Ast.AParentDesc -> [])
       f.Ir.f_params)

let parent_of ir storage sim tr f args =
  match Ir.parent_arg_index f with
  | None -> None
  | Some i -> (
      let p = arg_int args i in
      if p = 0 then None
      else
        match Tracker.find tr p with
        | Some _ -> Some (Tracker.Local p)
        | None -> (
            match ir.Ir.ir_model.Model.parent with
            | Model.XCParent -> (
                (* the parent was created by another component: the
                   storage component's creator registry names it (G0) *)
                match
                  Storage.lookup_desc storage sim ~space:ir.Ir.ir_name ~id:p
                with
                | Some (creator, _) ->
                    Some (Tracker.Cross { client = creator; id = p })
                | None -> Some (Tracker.Local p))
            | Model.Parent | Model.Solo -> Some (Tracker.Local p)))

let rec kill_desc model tr d =
  if model.Model.close_children then
    List.iter (kill_desc model tr) (Tracker.children tr d.Tracker.d_id);
  d.Tracker.d_live <- false;
  (* Y_dr: delete the tracking data itself, unless children may need it *)
  if model.Model.close_remove then Tracker.remove tr d.Tracker.d_id

let track ir machine storage sim tr ~epoch fn args ret =
  match Ir.func ir fn with
  | None -> ()
  | Some f ->
      let model = ir.Ir.ir_model in
      if Ir.is_create ir fn then begin
        let base =
          match Ir.desc_arg_index ir fn with
          | Some i -> arg_int args i
          | None -> as_int ret
        in
        let id =
          match Ir.ns_arg_index f with
          | Some i -> (arg_int args i lsl 32) lor base
          | None -> base
        in
        let parent = parent_of ir storage sim tr f args in
        ignore
          (Tracker.add tr sim ~server_id:base ?parent
             ~state:(Machine.after fn) ~meta:(tracked_meta f args) ~epoch id)
      end
      else
        match Option.map (arg_int args) (Ir.desc_arg_index ir fn) with
        | None -> ()
        | Some id -> (
            match Tracker.find tr id with
            | None -> ()
            | Some d ->
                if Ir.is_terminal ir fn then kill_desc model tr d
                else begin
                  (* fault detection: flag transitions outside sigma *)
                  (match Machine.sigma machine d.Tracker.d_state fn with
                  | Some _ -> ()
                  | None -> Atomic.incr (counter ir.Ir.ir_name));
                  Tracker.set_state tr sim d (Machine.after fn);
                  List.iter
                    (fun (k, v) -> Tracker.set_meta tr sim d k v)
                    (tracked_meta f args);
                  match f.Ir.f_retval with
                  | Some { Ast.ra_kind = `Set; ra_name; _ } ->
                      Tracker.set_meta tr sim d ra_name ret
                  | Some { Ast.ra_kind = `Accum; ra_name; _ } ->
                      let cur =
                        Option.value (Tracker.meta_int d ra_name) ~default:0
                      in
                      let delta =
                        match ret with
                        | Comp.VInt i -> i
                        | Comp.VStr s -> String.length s
                        | Comp.VBool _ | Comp.VUnit | Comp.VList _ -> 0
                      in
                      Tracker.set_meta tr sim d ra_name (Comp.VInt (cur + delta))
                  | None -> ()
                end)

let walk ir machine _sim wctx d =
  let recovery = Machine.plan machine d.Tracker.d_state in
  let exec fn =
    let f = Ir.func_exn ir fn in
    let args =
      List.map
        (fun p ->
          match p.Ast.pa_attr with
          | Ast.ADesc -> Comp.VInt d.Tracker.d_server_id
          | Ast.AParentDesc | Ast.ADescDataParent ->
              Comp.VInt (wctx.Cstub.w_parent_id d)
          | Ast.ADescNs | Ast.ADescData | Ast.APlain -> (
              match Tracker.meta d p.Ast.pa_name with
              | Some v -> v
              | None -> default_value p.Ast.pa_type))
        f.Ir.f_params
    in
    let ret = wctx.Cstub.w_invoke fn args in
    if Ir.is_create ir fn && Ir.desc_arg_index ir fn = None then
      (* the recovered server assigned a fresh concrete id *)
      d.Tracker.d_server_id <- as_int ret
  in
  List.iter exec recovery.Machine.pl_path;
  List.iter exec recovery.Machine.pl_restore

let client_config ?(mode = `Ondemand) ~storage ir =
  let machine = Machine.build ir in
  {
    Cstub.cfg_iface = ir.Ir.ir_name;
    cfg_mode = mode;
    cfg_desc_arg = (fun fn -> Ir.desc_arg_index ir fn);
    cfg_parent_arg =
      (fun fn -> Option.bind (Ir.func ir fn) Ir.parent_arg_index);
    cfg_terminate_fns = ir.Ir.ir_terminals;
    cfg_d0_children = ir.Ir.ir_model.Model.close_children;
    cfg_virtual_create =
      (fun fn ->
        (* local descriptors with server-assigned ids are virtualized;
           global ones keep the server's (storage-reseeded) ids *)
        (not ir.Ir.ir_model.Model.global)
        && Ir.is_create ir fn
        && Ir.desc_arg_index ir fn = None);
    cfg_track =
      (fun sim tr ~epoch fn args ret ->
        track ir machine storage sim tr ~epoch fn args ret);
    cfg_walk = (fun sim wctx d -> walk ir machine sim wctx d);
  }

(* T0: wake every thread suspended inside the rebooted component —
   through the wakeup function of the recovering server's server when
   the dependency is wired, directly through the kernel otherwise. *)
let t0 ?wakeup_dep () sim cid =
  List.iter
    (fun tcb ->
      match tcb.Ktcb.state with
      | Ktcb.Sleeping _ -> ignore (Sim.wakeup sim tcb.Ktcb.tid)
      | Ktcb.Blocked _ -> (
          match wakeup_dep with
          | Some (cell, wakeup_fn) -> (
              match !cell with
              | Some port ->
                  ignore
                    (Port.call port sim wakeup_fn [ Comp.VInt tcb.Ktcb.tid ])
              | None -> ignore (Sim.wakeup sim tcb.Ktcb.tid))
          | None -> ignore (Sim.wakeup sim tcb.Ktcb.tid))
      | Ktcb.Runnable | Ktcb.Exited -> ())
    (Ktcb.threads_inside (Sim.kernel sim).Kernel.threads cid)

let server_config ?wakeup_dep ir =
  let model = ir.Ir.ir_model in
  {
    Serverstub.ss_iface = ir.Ir.ir_name;
    ss_global = model.Model.global;
    ss_desc_arg = (fun fn -> Ir.desc_arg_index ir fn);
    ss_parent_arg = (fun fn -> Option.bind (Ir.func ir fn) Ir.parent_arg_index);
    ss_create_fns = ir.Ir.ir_creates;
    ss_create_meta =
      (fun fn args _ret ->
        match Ir.func ir fn with
        | Some f -> tracked_meta f args
        | None -> []);
    ss_boot_init =
      (if model.Model.block then t0 ?wakeup_dep ()
       else Serverstub.no_boot_init);
  }
