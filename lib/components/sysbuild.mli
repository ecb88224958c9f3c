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

type stubset = {
  st_name : string;  (** "c3" or "superglue" *)
  st_flavor : Sg_c3.Tracker.flavor;
  st_client : iface:string -> Sg_c3.Cstub.config;
  st_server :
    iface:string ->
    wakeup_dep:(Sg_os.Port.t option ref * string) option ->
    Sg_c3.Serverstub.config;
      (** [wakeup_dep] wires the wakeup function of the service's own
          server (the scheduler) for T0 eager recovery, where the
          component graph has such a dependency *)
}

type mode =
  | Base
  | Stubbed of (Sg_storage.Storage.t -> stubset)

val boot_order : string list
(** Registration (= boot and recovery) order of the six system services.
    A service may only name an earlier service as its wakeup target. *)

val wakeup_deps : (string * string * string) list
(** [(dependent, target, wakeup_fn)] edges: during T0 eager recovery the
    dependent service wakes threads blocked inside it through
    [wakeup_fn] of [target]. The static analyzer's system pass ([SG012])
    checks interface specs against these edges and {!boot_order}. *)

val image_kb : (string * int) list
(** Image size in KB of each of the six services, by interface name —
    the constants the component specs register with the simulator
    ([reboot cost = reboot_ns_per_kb * image_kb]). *)

val c3_stubset : Sg_storage.Storage.t -> stubset
(** The hand-written C³ baseline stubs. *)

type system = {
  sys_sim : Sg_os.Sim.t;
  sys_cbufs : Sg_cbuf.Cbuf.t;
  sys_storage : Sg_storage.Storage.t;
  sys_mode : string;  (** "base", "c3", "superglue", ... *)
  sys_app1 : Sg_os.Comp.cid;
  sys_app2 : Sg_os.Comp.cid;
  sys_sched : Sg_os.Comp.cid;
  sys_lock : Sg_os.Comp.cid;
  sys_timer : Sg_os.Comp.cid;
  sys_evt : Sg_os.Comp.cid;
  sys_fs : Sg_os.Comp.cid;
  sys_mm : Sg_os.Comp.cid;
  sys_port : client:Sg_os.Comp.cid -> iface:string -> Sg_os.Port.t;
  sys_stub : client:Sg_os.Comp.cid -> iface:string -> Sg_c3.Cstub.t option;
      (** the underlying stub, when the system is stubbed *)
}

val build : ?seed:int -> ?adversary:Sg_c3.Adversary.t -> mode -> system
(** [adversary] is shared by every client stub of the system
    ({!Sg_c3.Cstub.make}), so its nth-invocation trigger counts
    invocations system-wide; it has no effect in [Base] mode (raw ports
    bypass the stub engine). *)

val services : system -> (string * Sg_os.Comp.cid) list
(** The six injectable system services, by interface name. *)

val cid_of_iface : system -> string -> Sg_os.Comp.cid
