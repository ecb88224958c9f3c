module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Cbuf = Sg_cbuf.Cbuf
module Storage = Sg_storage.Storage
module Tracker = Sg_c3.Tracker
module Cstub = Sg_c3.Cstub
module Serverstub = Sg_c3.Serverstub
module Inttbl = Sg_util.Inttbl

type 'a services = {
  sched : 'a;
  mm : 'a;
  fs : 'a;
  lock : 'a;
  evt : 'a;
  timer : 'a;
}

(* applies [f] to each service's name, in the paper's order: the only
   place a service is named *)
let init f =
  let sched = f "sched" in
  let mm = f "mm" in
  let fs = f "fs" in
  let lock = f "lock" in
  let evt = f "evt" in
  let timer = f "timer" in
  { sched; mm; fs; lock; evt; timer }

let name = init Fun.id

(* every service's name and field, in the paper's order (Table II's
   rows, the web benchmarks' crash rotation) *)
let fields =
  [
    (name.sched, fun s -> s.sched);
    (name.mm, fun s -> s.mm);
    (name.fs, fun s -> s.fs);
    (name.lock, fun s -> s.lock);
    (name.evt, fun s -> s.evt);
    (name.timer, fun s -> s.timer);
  ]

let names = List.map fst fields

let rec field iface = function
  | [] -> invalid_arg ("Sysbuild: unknown interface " ^ iface)
  | (n, f) :: rest -> if String.equal n iface then f else field iface rest

let get s iface = field iface fields s
let to_list s = List.map (fun (n, f) -> (n, f s)) fields

(* Registration (= boot and recovery) order of the system services. A
   service may only name an earlier service as its wakeup target: the
   target must already be recoverable when the dependent reboots. The
   static analyzer's system pass (SG012) checks specs against this. *)
let boot_order = [ name.sched; name.lock; name.timer; name.evt; name.fs; name.mm ]

(* (dependent, target, wakeup function): the dependent service wakes
   threads blocked inside it through [wakeup function] of [target]
   during T0 eager recovery. *)
let wakeup_deps =
  [
    (name.lock, name.sched, "sched_wakeup");
    (name.evt, name.sched, "sched_wakeup");
  ]

(* the constants the component specs register with the simulator, so
   the static bound analysis (Sg_analysis.Wcr) prices reboots with
   exactly the kilobytes the simulator charges *)
let image_kb =
  {
    sched = Sched.image_kb;
    mm = Mm.image_kb;
    fs = Ramfs.image_kb;
    lock = Lock.image_kb;
    evt = Event.image_kb;
    timer = Timer.image_kb;
  }

(* each service's component, given the system's cbuf manager and
   storage and the cell of its port to its wakeup target *)
let specs =
  {
    sched = (fun ~cbufs:_ ~storage:_ ~sched_port:_ -> Sched.spec ());
    mm = (fun ~cbufs:_ ~storage:_ ~sched_port:_ -> Mm.spec ());
    fs = (fun ~cbufs ~storage ~sched_port:_ -> Ramfs.spec ~cbufs ~storage ());
    lock = (fun ~cbufs:_ ~storage:_ ~sched_port -> Lock.spec ~sched_port ());
    evt = (fun ~cbufs:_ ~storage:_ ~sched_port -> Event.spec ~sched_port ());
    timer = (fun ~cbufs:_ ~storage:_ ~sched_port:_ -> Timer.spec ());
  }

type stub = {
  client : storage:Storage.t -> unit -> Cstub.config;
  server :
    ?wakeup_dep:Port.t option ref * string -> unit -> Serverstub.config;
}

type stubset = {
  st_name : string;
  st_flavor : Tracker.flavor;
  st_stubs : stub services;
}

type mode = Base | Stubbed of stubset

let c3_stubset =
  let plain client server =
    {
      client = (fun ~storage:_ () -> client ());
      server = (fun ?wakeup_dep:_ () -> server ());
    }
  in
  let sched_port = function Some (cell, _) -> cell | None -> ref None in
  {
    st_name = "c3";
    st_flavor = Tracker.C3;
    st_stubs =
      {
        sched = plain C3_stub_sched.client_config C3_stub_sched.server_config;
        mm = plain C3_stub_mm.client_config C3_stub_mm.server_config;
        fs = plain C3_stub_fs.client_config C3_stub_fs.server_config;
        lock =
          {
            client = (fun ~storage:_ () -> C3_stub_lock.client_config ());
            server =
              (fun ?wakeup_dep () ->
                C3_stub_lock.server_config ~sched_port:(sched_port wakeup_dep)
                  ());
          };
        evt =
          {
            client = C3_stub_event.client_config;
            server =
              (fun ?wakeup_dep () ->
                C3_stub_event.server_config ~sched_port:(sched_port wakeup_dep)
                  ());
          };
        timer = plain C3_stub_timer.client_config C3_stub_timer.server_config;
      };
  }

type system = {
  sys_sim : Sim.t;
  sys_cbufs : Cbuf.t;
  sys_storage : Storage.t;
  sys_mode : string;
  sys_app1 : Comp.cid;
  sys_app2 : Comp.cid;
  sys_services : Comp.cid services;
  sys_port : client:Comp.cid -> iface:string -> Port.t;
  sys_stub : client:Comp.cid -> iface:string -> Cstub.t option;
}

let app_spec name ~image_kb =
  {
    Sim.sc_name = name;
    sc_image_kb = image_kb;
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
  let app1 = Sim.register sim (app_spec "app1" ~image_kb:32) in
  let app2 = Sim.register sim (app_spec "app2" ~image_kb:32) in
  (* one wakeup-port cell per declared dependency edge; the same cell is
     threaded into the service's own spec (its component behavior calls
     the target through it) and into its server stub (T0) *)
  let dep_cells =
    List.map
      (fun (dependent, target, fn) -> (dependent, (target, fn, ref None)))
      wakeup_deps
  in
  let register iface =
    let dep = List.assoc_opt iface dep_cells in
    let sched_port =
      match dep with Some (_, _, cell) -> cell | None -> ref None
    in
    let spec = get specs iface ~cbufs ~storage ~sched_port in
    let spec =
      match mode with
      | Base -> spec
      | Stubbed ss ->
          let wakeup_dep = Option.map (fun (_, fn, cell) -> (cell, fn)) dep in
          Serverstub.wrap ~storage
            ((get ss.st_stubs iface).server ?wakeup_dep ())
            spec
    in
    (iface, Sim.register sim spec)
  in
  (* registration in boot order decides every cid *)
  let cids = List.map register boot_order in
  let cid iface = List.assoc iface cids in
  (* capability grants: applications reach every service; each dependent
     service reaches its wakeup target *)
  List.iter
    (fun client ->
      List.iter (fun (_, server) -> Sim.grant sim ~client ~server) cids)
    [ app1; app2 ];
  List.iter
    (fun (dependent, target, _) ->
      Sim.grant sim ~client:(cid dependent) ~server:(cid target))
    wakeup_deps;
  let services = init cid in
  (* memoized ports: one stub (hence one tracker) per client/interface.
     Each interface holds its server and a table of its clients' ports,
     so a call costs a string compare per service ahead of it in the
     paper's order and one integer probe *)
  let slots =
    init (fun iface ->
        (cid iface, (Inttbl.create 4 : (Port.t * Cstub.t option) Inttbl.t)))
  in
  let resolve ~client ~iface =
    let server, ports = get slots iface in
    match Inttbl.find_opt ports client with
    | Some entry -> entry
    | None ->
        let entry =
          match mode with
          | Base -> (Port.raw server, None)
          | Stubbed ss ->
              let s =
                Cstub.make ?adversary sim ~client ~server ~flavor:ss.st_flavor
                  ((get ss.st_stubs iface).client ~storage ())
              in
              (Cstub.port s, Some s)
        in
        Inttbl.replace ports client entry;
        entry
  in
  let port ~client ~iface = fst (resolve ~client ~iface) in
  (* dependent services are clients of their wakeup targets: wire their
     (possibly stub-interposed) ports *)
  List.iter
    (fun (dependent, (target, _, cell)) ->
      cell := Some (port ~client:(cid dependent) ~iface:target))
    dep_cells;
  let stub ~client ~iface =
    match Inttbl.find_opt (snd (get slots iface)) client with
    | Some (_, s) -> s
    | None -> None
  in
  {
    sys_sim = sim;
    sys_cbufs = cbufs;
    sys_storage = storage;
    sys_mode = (match mode with Base -> "base" | Stubbed ss -> ss.st_name);
    sys_app1 = app1;
    sys_app2 = app2;
    sys_services = services;
    sys_port = port;
    sys_stub = stub;
  }

let services sys = to_list sys.sys_services
let cid_of_iface sys iface = get sys.sys_services iface

let iface_of_cid sys cid =
  List.find_map
    (fun (n, f) -> if f sys.sys_services = cid then Some n else None)
    fields
