module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Ktcb = Sg_kernel.Ktcb
module Kernel = Sg_kernel.Kernel
module Tracker = Sg_c3.Tracker
module Cstub = Sg_c3.Cstub
module Serverstub = Sg_c3.Serverstub
module Storage = Sg_storage.Storage
module Sysbuild = Sg_components.Sysbuild

let invalid_transitions cfg =
  Atomic.get (Stubplan.counter cfg.Cstub.cfg_iface)

let default_value ty =
  if Ir.marshal_is_string ty then Comp.VStr "" else Comp.VInt 0

let as_int = function
  | Comp.VInt i -> i
  | Comp.VBool b -> if b then 1 else 0
  | Comp.VUnit | Comp.VStr _ | Comp.VList _ -> 0

(* The per-call helpers below are plain recursions rather than
   [List] combinators over a fresh closure: they run on every tracked
   call, most of which capture nothing. *)
let rec arg_int args i =
  match args with
  | [] -> 0
  | v :: rest -> if i = 0 then as_int v else arg_int rest (i - 1)

let rec capture args = function
  | [] -> []
  | (i, name) :: rest -> (
      match List.nth_opt args i with
      | Some v -> (name, v) :: capture args rest
      | None -> capture args rest)

(* The tracked-data capture: every desc_data-attributed parameter is
   recorded under its declared name. *)
let tracked_meta (p : Stubplan.fn) args = capture args p.Stubplan.fn_meta

let rec set_metas tr sim d = function
  | [] -> ()
  | (k, v) :: rest ->
      Tracker.set_meta tr sim d k v;
      set_metas tr sim d rest

let rec mem_state s = function
  | [] -> false
  | x :: rest -> String.equal x s || mem_state s rest

let parent_of ir storage sim tr (plan : Stubplan.fn) args =
  match plan.Stubplan.fn_parent with
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

let track (a : Compiler.artifact) (p : Stubplan.fn) storage sim tr ~epoch args
    ret =
  let ir = a.Compiler.a_ir in
  if p.Stubplan.fn_create then begin
    let base =
      match p.Stubplan.fn_desc with
      | Some i -> arg_int args i
      | None -> as_int ret
    in
    let id =
      match p.Stubplan.fn_ns with
      | Some i -> (arg_int args i lsl 32) lor base
      | None -> base
    in
    let parent = parent_of ir storage sim tr p args in
    ignore
      (Tracker.add tr sim ~server_id:base ?parent ~state:p.Stubplan.fn_after
         ~meta:(tracked_meta p args) ~epoch id)
  end
  else
    match p.Stubplan.fn_desc with
    | None -> ()
    | Some i -> (
        match Tracker.find tr (arg_int args i) with
        | None -> ()
        | Some d ->
            if p.Stubplan.fn_terminal then kill_desc ir.Ir.ir_model tr d
            else begin
              (* fault detection: flag transitions outside sigma *)
              if not (mem_state d.Tracker.d_state p.Stubplan.fn_from) then
                Atomic.incr (Stubplan.counter ir.Ir.ir_name);
              Tracker.set_state tr sim d p.Stubplan.fn_after;
              set_metas tr sim d (tracked_meta p args);
              match p.Stubplan.fn_retval with
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

let walk (a : Compiler.artifact) _sim wctx d =
  let recovery = Machine.plan a.Compiler.a_machine d.Tracker.d_state in
  let exec fn =
    let p = Stubplan.find_exn a.Compiler.a_stubplan fn in
    let args =
      List.map
        (fun q ->
          match q.Ast.pa_attr with
          | Ast.ADesc -> Comp.VInt d.Tracker.d_server_id
          | Ast.AParentDesc | Ast.ADescDataParent ->
              Comp.VInt (wctx.Cstub.w_parent_id d)
          | Ast.ADescNs | Ast.ADescData | Ast.APlain -> (
              match Tracker.meta d q.Ast.pa_name with
              | Some v -> v
              | None -> default_value q.Ast.pa_type))
        p.Stubplan.fn_params
    in
    let ret = wctx.Cstub.w_invoke fn args in
    if p.Stubplan.fn_create && Option.is_none p.Stubplan.fn_desc then
      (* the recovered server assigned a fresh concrete id *)
      d.Tracker.d_server_id <- as_int ret
  in
  List.iter exec recovery.Machine.pl_path;
  List.iter exec recovery.Machine.pl_restore

(* every per-call question is one lookup in the artifact's plan, through
   [find] *)
let client_config ~find ~mode ~storage (a : Compiler.artifact) =
  let ir = a.Compiler.a_ir in
  {
    Cstub.cfg_iface = ir.Ir.ir_name;
    cfg_mode = mode;
    cfg_desc_arg =
      (fun fn -> Option.bind (find fn) (fun p -> p.Stubplan.fn_desc));
    cfg_parent_arg =
      (fun fn -> Option.bind (find fn) (fun p -> p.Stubplan.fn_parent));
    cfg_terminate_fns = ir.Ir.ir_terminals;
    cfg_d0_children = ir.Ir.ir_model.Model.close_children;
    cfg_virtual_create =
      (fun fn ->
        match find fn with
        | Some p -> p.Stubplan.fn_virtual_create
        | None -> false);
    cfg_track =
      (fun sim tr ~epoch fn args ret ->
        match find fn with
        | Some p -> track a p storage sim tr ~epoch args ret
        | None -> ());
    cfg_walk = (fun sim wctx d -> walk a sim wctx d);
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

let server_config ~find ?wakeup_dep (a : Compiler.artifact) =
  let ir = a.Compiler.a_ir in
  let model = ir.Ir.ir_model in
  {
    Serverstub.ss_iface = ir.Ir.ir_name;
    ss_global = model.Model.global;
    ss_desc_arg =
      (fun fn -> Option.bind (find fn) (fun p -> p.Stubplan.fn_desc));
    ss_parent_arg =
      (fun fn -> Option.bind (find fn) (fun p -> p.Stubplan.fn_parent));
    ss_create_fns = ir.Ir.ir_creates;
    ss_create_meta =
      (fun fn args _ret ->
        match find fn with Some p -> tracked_meta p args | None -> []);
    ss_boot_init =
      (if model.Model.block then t0 ?wakeup_dep ()
       else Serverstub.no_boot_init);
  }

(* one finder per system and interface, shared by the server stub and
   every client stub *)
let stub ?(mode = `Ondemand) (a : Compiler.artifact) : Sysbuild.stub =
 fun ~storage ?wakeup_dep () ->
  let find = Stubplan.finder a.Compiler.a_stubplan in
  {
    Sysbuild.server = server_config ~find ?wakeup_dep a;
    client = lazy (client_config ~find ~mode ~storage a);
  }
