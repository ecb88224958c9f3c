module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Cbuf = Sg_cbuf.Cbuf
module Storage = Sg_storage.Storage
module Tracker = Sg_c3.Tracker
module Cstub = Sg_c3.Cstub
module Serverstub = Sg_c3.Serverstub

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

(* a service's field of a table of any type *)
type sel = { sel : 'a. 'a services -> 'a }

let sels =
  {
    sched = { sel = (fun s -> s.sched) };
    mm = { sel = (fun s -> s.mm) };
    fs = { sel = (fun s -> s.fs) };
    lock = { sel = (fun s -> s.lock) };
    evt = { sel = (fun s -> s.evt) };
    timer = { sel = (fun s -> s.timer) };
  }

(* every service's name and field, in the paper's order (Table II's
   rows, the web benchmarks' crash rotation) *)
let fields =
  [
    (name.sched, sels.sched);
    (name.mm, sels.mm);
    (name.fs, sels.fs);
    (name.lock, sels.lock);
    (name.evt, sels.evt);
    (name.timer, sels.timer);
  ]

let names = List.map fst fields

let rec field iface = function
  | [] -> invalid_arg ("Sysbuild: unknown interface " ^ iface)
  | (n, f) :: rest -> if String.equal n iface then f else field iface rest

let get s iface = (field iface fields).sel s
let to_list s = List.map (fun (n, f) -> (n, f.sel s)) fields

(* applies [f] to each service's field in registration (= boot and
   recovery) order, the only place that order is spelled. A service may
   only name an earlier service as its wakeup target: the target must
   already be recoverable when the dependent reboots. The static
   analyzer's system pass (SG012) checks specs against this. *)
let init_boot f =
  let sched = f sels.sched in
  let lock = f sels.lock in
  let timer = f sels.timer in
  let evt = f sels.evt in
  let fs = f sels.fs in
  let mm = f sels.mm in
  { sched; mm; fs; lock; evt; timer }

let boot =
  let order = ref [] in
  ignore (init_boot (fun f -> order := f :: !order));
  List.rev !order

let boot_order = List.map (fun f -> f.sel name) boot

(* The scheduler function through which a service wakes threads blocked
   inside it during T0 eager recovery: each such service is a client of
   the scheduler, and its spec and server stub share the cell of its
   port to it. *)
let wakeup =
  {
    sched = None;
    mm = None;
    fs = None;
    lock = Some "sched_wakeup";
    evt = Some "sched_wakeup";
    timer = None;
  }

let wakeup_deps =
  List.filter_map
    (fun (dependent, fn) -> Option.map (fun fn -> (dependent, name.sched, fn)) fn)
    (to_list wakeup)

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
   storage and the cell of its port to the scheduler *)
let specs =
  {
    sched = (fun ~cbufs:_ ~storage:_ ~sched_port:_ -> Sched.spec ());
    mm = (fun ~cbufs:_ ~storage:_ ~sched_port:_ -> Mm.spec ());
    fs = (fun ~cbufs ~storage ~sched_port:_ -> Ramfs.spec ~cbufs ~storage ());
    lock = (fun ~cbufs:_ ~storage:_ ~sched_port -> Lock.spec ~sched_port ());
    evt = (fun ~cbufs:_ ~storage:_ ~sched_port -> Event.spec ~sched_port ());
    timer = (fun ~cbufs:_ ~storage:_ ~sched_port:_ -> Timer.spec ());
  }

type stub_instance = {
  server : Serverstub.config;
  client : Cstub.config Lazy.t;
}

type stub =
  storage:Storage.t ->
  ?wakeup_dep:Port.t option ref * string ->
  unit ->
  stub_instance

type stubset = {
  st_name : string;
  st_flavor : Tracker.flavor;
  st_stubs : stub services;
}

type mode = Base | Stubbed of stubset

let c3_stubset =
  let plain client server ~storage:_ ?wakeup_dep:_ () =
    { server = server (); client = lazy (client ()) }
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
          (fun ~storage:_ ?wakeup_dep () ->
            {
              server =
                C3_stub_lock.server_config ~sched_port:(sched_port wakeup_dep)
                  ();
              client = lazy (C3_stub_lock.client_config ());
            });
        evt =
          (fun ~storage ?wakeup_dep () ->
            {
              server =
                C3_stub_event.server_config ~sched_port:(sched_port wakeup_dep)
                  ();
              client = lazy (C3_stub_event.client_config ~storage ());
            });
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

(* a client's memoized port to a service, with its stub when stubbed *)
type port = { p_client : Comp.cid; p_port : Port.t; p_stub : Cstub.t option }

(* One service of a built system: its server, the cell of its port to
   the scheduler, and its clients' ports, one stub (hence one tracker)
   per client; a service has a handful of clients *)
type slot = {
  sl_server : Comp.cid;
  sl_sched_port : Port.t option ref;
  mutable sl_ports : port list;
  sl_make : client:Comp.cid -> port;
}

let rec find_port client = function
  | [] -> None
  | p :: rest -> if p.p_client = client then Some p else find_port client rest

let port_of sl ~client =
  match find_port client sl.sl_ports with
  | Some p -> p
  | None ->
      let p = sl.sl_make ~client in
      sl.sl_ports <- p :: sl.sl_ports;
      p

let build ?(seed = 42) ?adversary mode =
  let sim = Sim.create ~seed () in
  let cbufs = Cbuf.create () in
  let storage = Storage.create cbufs in
  let app1 = Sim.register sim (app_spec "app1" ~image_kb:32) in
  let app2 = Sim.register sim (app_spec "app2" ~image_kb:32) in
  (* the cell of a service's port to the scheduler is threaded into its
     spec (its component behavior calls the scheduler through it) and
     into its server stub (T0) *)
  let register f =
    let sched_port = ref None in
    let spec = f.sel specs ~cbufs ~storage ~sched_port in
    let slot sl_server sl_make =
      {
        sl_server;
        sl_sched_port = sched_port;
        sl_ports = [];
        sl_make;
      }
    in
    match mode with
    | Base ->
        let server = Sim.register sim spec in
        slot server (fun ~client ->
            { p_client = client; p_port = Port.raw server; p_stub = None })
    | Stubbed ss ->
        let wakeup_dep =
          Option.map (fun fn -> (sched_port, fn)) (f.sel wakeup)
        in
        let stub = f.sel ss.st_stubs ~storage ?wakeup_dep () in
        let server =
          Sim.register sim (Serverstub.wrap ~storage stub.server spec)
        in
        slot server (fun ~client ->
            let s =
              Cstub.make ?adversary sim ~client ~server ~flavor:ss.st_flavor
                (Lazy.force stub.client)
            in
            { p_client = client; p_port = Cstub.port s; p_stub = Some s })
  in
  (* registration in boot order decides every cid *)
  let slots = init_boot register in
  (* capability grants: applications reach every service; each dependent
     service reaches the scheduler *)
  List.iter
    (fun client ->
      List.iter
        (fun f -> Sim.grant sim ~client ~server:(f.sel slots).sl_server)
        boot)
    [ app1; app2 ];
  let dependents =
    List.filter_map
      (fun (_, f) ->
        if Option.is_some (f.sel wakeup) then Some (f.sel slots) else None)
      fields
  in
  List.iter
    (fun sl -> Sim.grant sim ~client:sl.sl_server ~server:slots.sched.sl_server)
    dependents;
  (* dependent services are clients of the scheduler: wire their
     (possibly stub-interposed) ports *)
  List.iter
    (fun sl ->
      sl.sl_sched_port :=
        Some (port_of slots.sched ~client:sl.sl_server).p_port)
    dependents;
  {
    sys_sim = sim;
    sys_cbufs = cbufs;
    sys_storage = storage;
    sys_mode = (match mode with Base -> "base" | Stubbed ss -> ss.st_name);
    sys_app1 = app1;
    sys_app2 = app2;
    sys_services = init_boot (fun f -> (f.sel slots).sl_server);
    sys_port = (fun ~client ~iface -> (port_of (get slots iface) ~client).p_port);
    sys_stub =
      (fun ~client ~iface ->
        match find_port client (get slots iface).sl_ports with
        | Some p -> p.p_stub
        | None -> None);
  }

let services sys = to_list sys.sys_services
let cid_of_iface sys iface = get sys.sys_services iface

let iface_of_cid sys cid =
  List.find_map
    (fun (n, f) -> if f.sel sys.sys_services = cid then Some n else None)
    fields
