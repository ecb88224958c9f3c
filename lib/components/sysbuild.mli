(** System assembly: the componentized OS in its three configurations.

    Builds the full component graph of the evaluation systems — two
    application components, the six system services (scheduler, memory
    manager, RamFS, lock, event manager, timer manager), the trusted
    storage component and cbuf manager — and wires the invocation paths:

    - {b Base}: raw kernel invocations, no recovery (plain COMPOSITE);
    - {b Stubbed}: every client/server interface pair carries a client
      stub (tracking + recovery) and every system service is wrapped in
      a server stub (G0/T0) — the C³ and SuperGlue configurations differ
      only in the stub set plugged in here.

    Ports are memoized per (client, interface) so all threads of a
    client share one descriptor tracker, as stubs do in COMPOSITE. *)

type 'a services = {
  sched : 'a;
  mm : 'a;
  fs : 'a;
  lock : 'a;
  evt : 'a;
  timer : 'a;
}
(** One value per system service: a table that omits one does not
    compile. *)

val names : string list
(** The six services in the paper's order (Table II's rows, the web
    benchmarks' crash rotation): sched, mm, fs, lock, evt, timer. *)

val get : 'a services -> string -> 'a
(** The one name lookup: raises [Invalid_argument] on an unknown name. *)

val init : (string -> 'a) -> 'a services
val to_list : 'a services -> (string * 'a) list
(** By name, in the paper's order. *)

val boot_order : string list
(** Registration (= boot and recovery) order of the six system services:
    sched, lock, timer, evt, fs, mm. It decides every component id. A
    service may only name an earlier service as its wakeup target. *)

val wakeup_deps : (string * string * string) list
(** [(dependent, target, wakeup_fn)] edges: during T0 eager recovery the
    dependent service wakes threads blocked inside it through
    [wakeup_fn] of [target]. The static analyzer's system pass ([SG012])
    checks interface specs against these edges and {!boot_order}. *)

val image_kb : int services
(** Image size in KB of each service — the constants the component
    specs register with the simulator
    ([reboot cost = reboot_ns_per_kb * image_kb]). *)

type stub_instance = {
  server : Sg_c3.Serverstub.config;
  client : Sg_c3.Cstub.config Lazy.t;
      (** forced at most once per system, when the interface's first
          client port is resolved; every client's stub shares the config *)
}
(** One interface's stubs in one system. *)

type stub =
  storage:Sg_storage.Storage.t ->
  ?wakeup_dep:Sg_os.Port.t option ref * string ->
  unit ->
  stub_instance
(** Called once per system, when the service registers, so the server
    and client configs can share per-system state (the interpreted
    stubs' one [Stubplan.finder]). [wakeup_dep] wires the
    wakeup function of the service's own server (the scheduler) for T0
    eager recovery, where the component graph has such a dependency. *)

type stubset = {
  st_name : string;  (** "c3", "superglue", ... *)
  st_flavor : Sg_c3.Tracker.flavor;
  st_stubs : stub services;
}

type mode = Base | Stubbed of stubset

val c3_stubset : stubset
(** The hand-written C³ baseline stubs. *)

type system = {
  sys_sim : Sg_os.Sim.t;
  sys_cbufs : Sg_cbuf.Cbuf.t;
  sys_storage : Sg_storage.Storage.t;
  sys_mode : string;  (** "base", "c3", "superglue", ... *)
  sys_app1 : Sg_os.Comp.cid;
  sys_app2 : Sg_os.Comp.cid;
  sys_services : Sg_os.Comp.cid services;
  sys_port : client:Sg_os.Comp.cid -> iface:string -> Sg_os.Port.t;
  sys_stub : client:Sg_os.Comp.cid -> iface:string -> Sg_c3.Cstub.t option;
      (** the underlying stub, when the system is stubbed *)
}

val app_spec : string -> image_kb:int -> Sg_os.Sim.spec
(** A passive application component: every invocation of it fails. *)

val build : ?seed:int -> ?adversary:Sg_c3.Adversary.t -> mode -> system
(** [adversary] is shared by every client stub of the system
    ({!Sg_c3.Cstub.make}), so its nth-invocation trigger counts
    invocations system-wide; it has no effect in [Base] mode (raw ports
    bypass the stub engine). *)

val services : system -> (string * Sg_os.Comp.cid) list
(** The six injectable system services, by name, in the paper's order. *)

val cid_of_iface : system -> string -> Sg_os.Comp.cid
val iface_of_cid : system -> Sg_os.Comp.cid -> string option
