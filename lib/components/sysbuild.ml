module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Cbuf = Sg_cbuf.Cbuf
module Storage = Sg_storage.Storage
module Tracker = Sg_c3.Tracker
module Cstub = Sg_c3.Cstub
module Serverstub = Sg_c3.Serverstub
module Inttbl = Sg_util.Inttbl

type stubset = {
  st_name : string;
  st_flavor : Tracker.flavor;
  st_client : iface:string -> Cstub.config;
  st_server :
    iface:string ->
    wakeup_dep:(Sg_os.Port.t option ref * string) option ->
    Serverstub.config;
}

type mode = Base | Stubbed of (Storage.t -> stubset)

let c3_stubset storage =
  {
    st_name = "c3";
    st_flavor = Tracker.C3;
    st_client =
      (fun ~iface ->
        match iface with
        | "sched" -> C3_stub_sched.client_config ()
        | "lock" -> C3_stub_lock.client_config ()
        | "timer" -> C3_stub_timer.client_config ()
        | "evt" -> C3_stub_event.client_config ~storage ()
        | "fs" -> C3_stub_fs.client_config ()
        | "mm" -> C3_stub_mm.client_config ()
        | iface -> invalid_arg ("c3_stubset: unknown interface " ^ iface));
    st_server =
      (fun ~iface ~wakeup_dep ->
        let sched_port =
          match wakeup_dep with Some (cell, _) -> cell | None -> ref None
        in
        match iface with
        | "sched" -> C3_stub_sched.server_config ()
        | "lock" -> C3_stub_lock.server_config ~sched_port ()
        | "timer" -> C3_stub_timer.server_config ()
        | "evt" -> C3_stub_event.server_config ~sched_port ()
        | "fs" -> C3_stub_fs.server_config ()
        | "mm" -> C3_stub_mm.server_config ()
        | iface -> invalid_arg ("c3_stubset: unknown interface " ^ iface));
  }

type system = {
  sys_sim : Sim.t;
  sys_cbufs : Cbuf.t;
  sys_storage : Storage.t;
  sys_mode : string;
  sys_app1 : Comp.cid;
  sys_app2 : Comp.cid;
  sys_sched : Comp.cid;
  sys_lock : Comp.cid;
  sys_timer : Comp.cid;
  sys_evt : Comp.cid;
  sys_fs : Comp.cid;
  sys_mm : Comp.cid;
  sys_port : client:Comp.cid -> iface:string -> Port.t;
  sys_stub : client:Comp.cid -> iface:string -> Cstub.t option;
}

(* Registration (= boot and recovery) order of the system services. A
   service may only name an earlier service as its wakeup target: the
   target must already be recoverable when the dependent reboots. The
   static analyzer's system pass (SG012) checks specs against this. *)
let boot_order = [ "sched"; "lock"; "timer"; "evt"; "fs"; "mm" ]

(* (dependent, target, wakeup function): the dependent service wakes
   threads blocked inside it through [wakeup function] of [target]
   during T0 eager recovery. *)
let wakeup_deps =
  [ ("lock", "sched", "sched_wakeup"); ("evt", "sched", "sched_wakeup") ]

(* Image sizes of the six services, by interface name — the same
   constants the component specs register with the simulator, so the
   static bound analysis (Sg_analysis.Wcr) prices reboots with exactly
   the kilobytes the simulator charges. *)
let image_kb =
  [
    ("sched", Sched.image_kb);
    ("lock", Lock.image_kb);
    ("timer", Timer.image_kb);
    ("evt", Event.image_kb);
    ("fs", Ramfs.image_kb);
    ("mm", Mm.image_kb);
  ]

let app_spec name =
  {
    Sim.sc_name = name;
    sc_image_kb = 32;
    sc_init = (fun _ _ -> ());
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch = (fun _ _ _ _ -> Error Comp.ENOENT);
    sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
    sc_usage = (fun _ -> None);
  }

let build ?(seed = 42) ?adversary mode =
  let sim = Sim.create ~seed () in
  let cbufs = Cbuf.create () in
  let storage = Storage.create cbufs in
  let stubset =
    match mode with Base -> None | Stubbed f -> Some (f storage)
  in
  let app1 = Sim.register sim (app_spec "app1") in
  let app2 = Sim.register sim (app_spec "app2") in
  (* one wakeup-port cell per declared dependency edge; the same cell is
     threaded into the service's own spec (its component behavior calls
     the target through it) and into its server stub (T0) *)
  let dep_cells =
    List.map
      (fun (dependent, target, fn) -> (dependent, (target, fn, ref None)))
      wakeup_deps
  in
  let wakeup_dep_of iface =
    match List.assoc_opt iface dep_cells with
    | Some (_, fn, cell) -> Some (cell, fn)
    | None -> None
  in
  let cell_of iface =
    match List.assoc_opt iface dep_cells with
    | Some (_, _, cell) -> cell
    | None -> ref None
  in
  let maybe_wrap ~iface ~wakeup_dep spec =
    match stubset with
    | None -> spec
    | Some ss -> Serverstub.wrap ~storage (ss.st_server ~iface ~wakeup_dep) spec
  in
  let spec_of = function
    | "sched" -> Sched.spec ()
    | "lock" -> Lock.spec ~sched_port:(cell_of "lock") ()
    | "timer" -> Timer.spec ()
    | "evt" -> Event.spec ~sched_port:(cell_of "evt") ()
    | "fs" -> Ramfs.spec ~cbufs ~storage ()
    | "mm" -> Mm.spec ()
    | iface -> invalid_arg ("Sysbuild: unknown interface " ^ iface)
  in
  let cids =
    List.map
      (fun iface ->
        ( iface,
          Sim.register sim
            (maybe_wrap ~iface ~wakeup_dep:(wakeup_dep_of iface)
               (spec_of iface)) ))
      boot_order
  in
  let iface_cid iface =
    match List.assoc_opt iface cids with
    | Some cid -> cid
    | None -> invalid_arg ("Sysbuild: unknown interface " ^ iface)
  in
  let sched = iface_cid "sched" in
  let lock = iface_cid "lock" in
  let timer = iface_cid "timer" in
  let evt = iface_cid "evt" in
  let fs = iface_cid "fs" in
  let mm = iface_cid "mm" in
  (* capability grants: applications reach every service; each dependent
     service reaches its wakeup target *)
  List.iter
    (fun client ->
      List.iter
        (fun (_, server) -> Sim.grant sim ~client ~server)
        cids)
    [ app1; app2 ];
  List.iter
    (fun (dependent, target, _) ->
      Sim.grant sim ~client:(iface_cid dependent) ~server:(iface_cid target))
    wakeup_deps;
  (* memoized ports: one stub (hence one tracker) per client/interface.
     Each interface is resolved once, to its server and a table of its
     clients' ports, so a call costs a string compare per interface
     ahead of it in boot order and one integer probe *)
  let slots =
    List.map
      (fun (iface, server) ->
        (iface, server, (Inttbl.create 4 : (Port.t * Cstub.t option) Inttbl.t)))
      cids
  in
  let rec slot_of iface = function
    | [] -> None
    | ((name, _, _) as slot) :: rest ->
        if String.equal name iface then Some slot else slot_of iface rest
  in
  let resolve ~client ~iface =
    match slot_of iface slots with
    | None -> invalid_arg ("Sysbuild: unknown interface " ^ iface)
    | Some (_, server, ports) -> (
        match Inttbl.find_opt ports client with
        | Some entry -> entry
        | None ->
            let entry =
              match stubset with
              | None -> (Port.raw server, None)
              | Some ss ->
                  let s =
                    Cstub.make ?adversary sim ~client ~server
                      ~flavor:ss.st_flavor (ss.st_client ~iface)
                  in
                  (Cstub.port s, Some s)
            in
            Inttbl.replace ports client entry;
            entry)
  in
  let port ~client ~iface = fst (resolve ~client ~iface) in
  (* dependent services are clients of their wakeup targets: wire their
     (possibly stub-interposed) ports *)
  List.iter
    (fun (dependent, (target, _, cell)) ->
      cell := Some (port ~client:(iface_cid dependent) ~iface:target))
    dep_cells;
  let stub ~client ~iface =
    match slot_of iface slots with
    | Some (_, _, ports) -> (
        match Inttbl.find_opt ports client with Some (_, s) -> s | None -> None)
    | None -> None
  in
  {
    sys_sim = sim;
    sys_cbufs = cbufs;
    sys_storage = storage;
    sys_mode = (match stubset with None -> "base" | Some ss -> ss.st_name);
    sys_app1 = app1;
    sys_app2 = app2;
    sys_sched = sched;
    sys_lock = lock;
    sys_timer = timer;
    sys_evt = evt;
    sys_fs = fs;
    sys_mm = mm;
    sys_port = port;
    sys_stub = stub;
  }

let services sys =
  [
    ("sched", sys.sys_sched);
    ("mm", sys.sys_mm);
    ("fs", sys.sys_fs);
    ("lock", sys.sys_lock);
    ("evt", sys.sys_evt);
    ("timer", sys.sys_timer);
  ]

let cid_of_iface sys iface =
  match List.assoc_opt iface (services sys) with
  | Some cid -> cid
  | None -> invalid_arg ("Sysbuild.cid_of_iface: " ^ iface)
