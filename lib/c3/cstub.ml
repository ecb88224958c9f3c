module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port

type walk_ctx = {
  w_invoke : string -> Comp.value list -> Comp.value;
  w_parent_id : Tracker.desc -> int;
  w_recover_local : int -> unit;
}

type config = {
  cfg_iface : string;
  cfg_mode : [ `Ondemand | `Eager ];
  cfg_desc_arg : string -> int option;
  cfg_parent_arg : string -> int option;
  cfg_terminate_fns : string list;
  cfg_d0_children : bool;
  cfg_virtual_create : string -> bool;
  cfg_track :
    Sim.t -> Tracker.t -> epoch:int ->
    string -> Comp.value list -> Comp.value -> unit;
  cfg_walk : Sim.t -> walk_ctx -> Tracker.desc -> unit;
}

exception Walk_interrupted

type t = {
  sb_client : Comp.cid;
  sb_server : Comp.cid;
  sb_tracker : Tracker.t;
  sb_cfg : config;
  sb_adversary : Adversary.t option;
  sb_upcall : string;  (* this stub's recovery upcall, [upcall_name] *)
  mutable sb_recoveries : int;
}

let upcall_name iface = "sg_recover:" ^ iface

let tracker t = t.sb_tracker
let server t = t.sb_server
let client t = t.sb_client
let recoveries t = t.sb_recoveries

let ensure_alive sim cid = if Sim.is_failed sim cid then Sim.microreboot sim cid

let max_retries = 64

(* Route one server invocation through the edge adversary (when armed),
   tagging it with [in_walk] so racing adversaries (phase In_walk/Any)
   can target recovery-walk replays while a Live adversary observes
   them as if unhooked. Every firing emits a Perturb event — also when
   the perturbed invocation then crashes or diverts. *)
let invoke_hooked sim t ~in_walk fn args =
  match t.sb_adversary with
  | None -> Sim.invoke sim ~server:t.sb_server fn args
  | Some adv -> (
      let before = Adversary.fires adv in
      let emit_fire () =
        if Adversary.fires adv > before then
          Sim.emit sim
            (Sg_obs.Event.Perturb
               {
                 iface = t.sb_cfg.cfg_iface;
                 fn;
                 action = Adversary.label adv;
                 in_walk;
               })
      in
      match
        Adversary.invoke adv ~iface:t.sb_cfg.cfg_iface ~fn ~in_walk
          ~invoke:(fun a -> Sim.invoke sim ~server:t.sb_server fn a)
          args
      with
      | r ->
          emit_fire ();
          r
      | exception e ->
          emit_fire ();
          raise e)

(* Invoke an interface function during a recovery walk. On a fault the
   server is rebooted and the whole walk restarted (the partially replayed
   state is gone with the reboot, so per-step retry would be wrong).
   Since the race pass (DESIGN.md §3.13) this path traverses the
   adversary hook too, tagged [in_walk]. *)
let walk_invoke sim t fn args =
  match invoke_hooked sim t ~in_walk:true fn args with
  | Ok v -> v
  | Error e ->
      failwith
        (Printf.sprintf "recovery walk: %s.%s returned %s" t.sb_cfg.cfg_iface
           fn (Comp.errno_to_string e))
  | exception Comp.Crash { cid; _ } when cid = t.sb_server ->
      ensure_alive sim t.sb_server;
      raise Walk_interrupted
  | exception Comp.Diverted { cid } when cid = t.sb_server ->
      ensure_alive sim t.sb_server;
      raise Walk_interrupted

(* T1 on-demand recovery: a descriptor already consistent at the
   server's epoch costs one compare, before any closure is built *)
let rec recover_desc ?(even_dead = false) ?(reason = Sg_obs.Event.Demand) sim t d =
  if (d.Tracker.d_live || even_dead) && d.Tracker.d_epoch <> Sim.epoch sim t.sb_server
  then walk_desc ~even_dead ~reason sim t d

and walk_desc ~even_dead ~reason sim t d =
  let walk_end ok =
    Sim.emit sim
      (Sg_obs.Event.Walk_end { client = t.sb_client; server = t.sb_server; ok })
  in
  let rec go attempt =
    if attempt > max_retries then
      failwith
        (Printf.sprintf "descriptor %d of %s: recovery did not converge"
           d.Tracker.d_id t.sb_cfg.cfg_iface);
    let ep = Sim.epoch sim t.sb_server in
    if (d.Tracker.d_live || even_dead) && d.Tracker.d_epoch <> ep then begin
      (* mark consistent first: the walk below replays interface calls
         that re-enter this stub's tracking *)
      d.Tracker.d_epoch <- ep;
      t.sb_recoveries <- t.sb_recoveries + 1;
      Sim.emit sim
        (Sg_obs.Event.Walk_begin
           {
             client = t.sb_client;
             server = t.sb_server;
             iface = t.sb_cfg.cfg_iface;
             desc = d.Tracker.d_id;
             reason;
           });
      match
        let parent_id d =
          (* D1: parents are recovered root-first before the walk can
             replay the creation that depends on them *)
          match d.Tracker.d_parent with
          | None -> 0
          | Some (Tracker.Local pid) -> (
              match Tracker.find t.sb_tracker pid with
              | Some p ->
                  (* Y_dr: a closed parent's kept record is still walked
                     (without resurrecting it) so the child's creation
                     chain can be replayed *)
                  recover_desc ~even_dead:true ~reason:Sg_obs.Event.Dep sim t p;
                  (* the parent's walk absorbed a reboot of the server: the
                     creation replayed next would land at the new epoch and
                     be replayed again by the end-of-walk re-check, so
                     restart the walk before anything is replayed *)
                  if Sim.epoch sim t.sb_server <> d.Tracker.d_epoch then
                    raise Walk_interrupted;
                  p.Tracker.d_server_id
              | None -> pid)
          | Some (Tracker.Cross { client; id }) -> (
              (* XCParent: the parent lives in another client component;
                 upcall into its stub (U0) *)
              match
                Sim.upcall sim ~client t.sb_upcall [ Comp.VInt id ]
              with
              | Ok (Comp.VInt sid) -> sid
              | Ok _ | Error _ -> id)
        in
        let wctx =
          {
            w_invoke = (fun fn args -> walk_invoke sim t fn args);
            w_parent_id = parent_id;
            w_recover_local =
              (fun id ->
                match Tracker.find t.sb_tracker id with
                | Some p -> recover_desc ~reason:Sg_obs.Event.Dep sim t p
                | None -> ());
          }
        in
        t.sb_cfg.cfg_walk sim wctx d;
        (* the stub updates its tracking record post-recovery *)
        Tracker.track_charge t.sb_tracker sim
      with
      | () ->
          (* A nested recovery (a Dep/XCParent walk of the parent, or a
             replay that crashed the server again) can absorb a
             crash+reboot without unwinding this walk: the inner walk
             retries at the new epoch and returns normally, leaving this
             walk's replayed state — stamped at the old epoch — silently
             stale. Left as-is, the next G0 upcall for this descriptor
             re-replays it into a second, diverging live copy (threads
             blocked on the first replica starve). Re-check the epoch at
             walk end and redo the walk if a nested reboot moved it. *)
          if Sim.epoch sim t.sb_server <> ep then begin
            walk_end false;
            d.Tracker.d_epoch <- -1;
            go (attempt + 1)
          end
          else walk_end true
      | exception Walk_interrupted ->
          walk_end false;
          d.Tracker.d_epoch <- -1;
          go (attempt + 1)
      | exception e ->
          walk_end false;
          raise e
    end
  in
  go 0

let recover_all sim t =
  Sim.emit sim
    (Sg_obs.Event.Recover_begin
       { client = t.sb_client; server = t.sb_server; iface = t.sb_cfg.cfg_iface });
  let recover_end () =
    Sim.emit sim
      (Sg_obs.Event.Recover_end { client = t.sb_client; server = t.sb_server })
  in
  match
    List.iter
      (fun d -> recover_desc ~reason:Sg_obs.Event.Eager sim t d)
      (Tracker.live t.sb_tracker)
  with
  | () -> recover_end ()
  | exception e ->
      recover_end ();
      raise e

(* CSTUB_FAULT_UPDATE: booter recovery plus, in eager mode, immediate
   recovery of the entire tracked state. *)
let fault_update sim t =
  ensure_alive sim t.sb_server;
  match t.sb_cfg.cfg_mode with
  | `Eager -> recover_all sim t
  | `Ondemand -> ()

let replace_nth l n v = List.mapi (fun i x -> if i = n then v else x) l

(* the argument at [idx], [VUnit] past the end *)
let rec arg_at args idx =
  match args with
  | [] -> Comp.VUnit
  | v :: rest -> if idx = 0 then v else arg_at rest (idx - 1)

(* the arguments with the descriptor id at [idx] translated to [d]'s
   current server id; the same list when the ids agree *)
let translate args idx id d =
  if d.Tracker.d_server_id = id then args
  else replace_nth args idx (Comp.VInt d.Tracker.d_server_id)

(* D0: a terminate function destroys the children too; they must exist
   on the recovered server for the recursive revocation to have its side
   effects. A fresh fault during one child's walk stales the
   already-recovered ones, so iterate until the whole family is
   consistent at a single epoch. *)
let recover_family sim t fn d =
  let cfg = t.sb_cfg in
  let rec family acc d =
    List.fold_left family (d :: acc) (Tracker.children t.sb_tracker d.Tracker.d_id)
  in
  let rec stabilize attempt =
    if attempt > max_retries then
      failwith
        (Printf.sprintf "%s.%s: subtree recovery did not converge" cfg.cfg_iface fn);
    let members = family [] d in
    List.iter (fun m -> recover_desc sim t m) members;
    let ep = Sim.epoch sim t.sb_server in
    if not (List.for_all (fun m -> m.Tracker.d_epoch = ep) (family [] d)) then
      stabilize (attempt + 1)
  in
  stabilize 0

(* The Fig-4 invocation loop. A top-level function rather than a local
   closure, so that a call needing no recovery allocates nothing here. *)
let rec attempt t sim fn args n =
  let cfg = t.sb_cfg in
  if n > max_retries then
    failwith
      (Printf.sprintf "%s.%s: fault recovery did not converge" cfg.cfg_iface fn);
  (* cli_if_desc_update: T1 on-demand recovery of the descriptors this
     call touches, and translation to their current server ids; a
     parent-bearing argument is recovered first (D1) *)
  let args_parented =
    match cfg.cfg_parent_arg fn with
    | None -> args
    | Some idx -> (
        match arg_at args idx with
        | Comp.VInt id ->
            let d = Tracker.find_or_untracked t.sb_tracker id in
            if d.Tracker.d_live then begin
              recover_desc sim t d;
              translate args idx id d
            end
            else args
        | _ -> args)
  in
  let args' =
    match cfg.cfg_desc_arg fn with
    | None -> args_parented
    | Some idx -> (
        Tracker.lookup_charge t.sb_tracker sim;
        match arg_at args_parented idx with
        | Comp.VInt id ->
            let d = Tracker.find_or_untracked t.sb_tracker id in
            if d.Tracker.d_live then begin
              recover_desc sim t d;
              if
                cfg.cfg_d0_children
                && List.exists (String.equal fn) cfg.cfg_terminate_fns
              then recover_family sim t fn d;
              translate args_parented idx id d
            end
            else args_parented
        | _ -> args_parented)
  in
  match
    (* the DST edge adversary sits here as a man-in-the-middle
       between stub and server; walk_invoke routes recovery replays
       through the same hook with in_walk:true *)
    invoke_hooked sim t ~in_walk:false fn args'
  with
  | Ok ret as ok ->
      (* cli_if_track: descriptor state tracking on the original
         (client-visible) ids *)
      cfg.cfg_track sim t.sb_tracker
        ~epoch:(Sim.epoch sim t.sb_server)
        fn args ret;
      if cfg.cfg_virtual_create fn then
        (* hand the client a stub-virtual id that survives server
           namespace resets; the stub translates on every call *)
        match ret with
        | Comp.VInt raw -> (
            let v = Tracker.fresh t.sb_tracker in
            match Tracker.rekey t.sb_tracker ~from:raw ~to_:v with
            | Some _ -> Ok (Comp.VInt v)
            | None -> ok)
        | _ -> ok
      else ok
  | Error _ as e -> e
  | exception Comp.Crash { cid; _ } when cid = t.sb_server ->
      fault_update sim t;
      attempt t sim fn args (n + 1)
  | exception Comp.Diverted { cid } when cid = t.sb_server ->
      fault_update sim t;
      attempt t sim fn args (n + 1)
  | exception Walk_interrupted ->
      (* a nested recovery was interrupted by a fresh fault *)
      fault_update sim t;
      attempt t sim fn args (n + 1)

let call t sim fn args = attempt t sim fn args 0

let port t =
  { Port.server = t.sb_server; call = (fun sim fn args -> call t sim fn args) }

let make ?adversary sim ~client ~server ~flavor cfg =
  let upcall = upcall_name cfg.cfg_iface in
  let t =
    {
      sb_client = client;
      sb_server = server;
      sb_tracker = Tracker.create ~flavor ();
      sb_cfg = cfg;
      sb_adversary = adversary;
      sb_upcall = upcall;
      sb_recoveries = 0;
    }
  in
  (* recovery upcall: lets server-side stubs (G0) and cross-component
     parent recovery (XCParent/U0) drive this stub *)
  Sim.register_upcall sim ~client upcall
    (fun sim args ->
      match args with
      | [ Comp.VInt id ] -> (
          match Tracker.find t.sb_tracker id with
          | Some d when d.Tracker.d_live ->
              recover_desc ~reason:Sg_obs.Event.Upcall_driven sim t d;
              Ok (Comp.VInt d.Tracker.d_server_id)
          | Some _ | None -> Error Comp.ENOENT)
      | _ -> Error Comp.EINVAL);
  t
