(** The client-side interface stub engine.

    This implements the invocation template of the paper's Fig 4: every
    call through the stub updates descriptor tracking, performs the
    invocation, and — if an inter-component exception signals a server
    fault — triggers booter recovery and replays:

    {v
      redo:
        cli_if_desc_update(...)        — T1 on-demand descriptor recovery
        ret = cli_if_invoke(...)
        if fault:
          CSTUB_FAULT_UPDATE()         — micro-reboot via the booter
          if cli_if_desc_update_post_fault(): goto redo
        ret = cli_if_track(...)        — descriptor state tracking
    v}

    The same engine drives both the hand-written C³ stubs (closures in
    [Sg_components.*_stubs]) and the SuperGlue stubs (interpreted from the
    compiled IDL); they differ only in their {!config} values and in the
    per-action tracking cost charged. *)

type walk_ctx = {
  w_invoke : string -> Sg_os.Comp.value list -> Sg_os.Comp.value;
      (** invoke an interface function during a recovery walk; raises
          {!Walk_interrupted} if the server faults again mid-walk *)
  w_parent_id : Tracker.desc -> int;
      (** D1: recover the descriptor's parent first — recursively for a
          local parent, via an upcall into the creating component's stub
          for a cross-component parent (XCParent/U0) — and return the
          parent's current server id; 0 when there is no parent *)
  w_recover_local : int -> unit;
      (** recover another descriptor of this same stub first *)
}

type config = {
  cfg_iface : string;
      (** interface name; also the storage space and upcall key *)
  cfg_mode : [ `Ondemand | `Eager ];
      (** T1 on-demand (default, properly prioritized) vs eager recovery
          of every tracked descriptor at fault time *)
  cfg_desc_arg : string -> int option;
      (** argument position holding the descriptor id, per function *)
  cfg_parent_arg : string -> int option;
      (** argument position holding a parent descriptor id (D1): it is
          recovered on demand and translated to the parent's current
          server id before the invocation proceeds *)
  cfg_terminate_fns : string list;
      (** I^terminate: functions that destroy a descriptor *)
  cfg_d0_children : bool;
      (** C_dr: terminating a descriptor destroys its children, so they
          are recovered first (D0) for recursive revocation to take
          effect on the recovered server *)
  cfg_virtual_create : string -> bool;
      (** creation functions whose returned id the stub virtualizes: the
          client receives a stub id, stable across recoveries, and the
          stub translates to the server's current id on every call.
          Required for local descriptors whose server namespace resets
          with a micro-reboot (fds, lock ids, timer ids); global
          descriptors (G_dr) keep the server's ids, which the server
          re-seeds from the storage registry instead. *)
  cfg_track :
    Sg_os.Sim.t -> Tracker.t -> epoch:int ->
    string -> Sg_os.Comp.value list -> Sg_os.Comp.value -> unit;
      (** post-success descriptor tracking: interpret (fn, args, ret) *)
  cfg_walk : Sg_os.Sim.t -> walk_ctx -> Tracker.desc -> unit;
      (** replay the shortest path of interface functions bringing the
          descriptor from the post-reboot initial state to its tracked
          expected state (R0); must update [d_server_id] for recreated
          descriptors *)
}

exception Walk_interrupted
(** The server faulted again during a recovery walk; the engine reboots
    it and restarts the walk from scratch. *)

type t

val upcall_name : string -> string
(** ["sg_recover:<iface>"]: the name of an interface's recovery upcall. *)

val make :
  ?adversary:Adversary.t ->
  Sg_os.Sim.t -> client:Sg_os.Comp.cid -> server:Sg_os.Comp.cid ->
  flavor:Tracker.flavor -> config -> t
(** Create the stub and register its recovery upcall (the
    {!upcall_name} of the config's interface) with the simulator so that server-side stubs and cross-component parents
    (XCParent, U0/G0) can reach it.
    [adversary] interposes on the invocation path ({!Adversary}): live
    calls are tagged [in_walk:false] and recovery-walk replays
    [in_walk:true], so racing adversaries (phase [In_walk]/[Any]) can
    perturb a walk in flight while the default [Live] phase observes
    only client calls. The same value is shared by every stub of a
    system so the nth-invocation trigger counts system-wide. Every
    adversary firing emits an {!Sg_obs.Event.Perturb}. *)

val port : t -> Sg_os.Port.t
(** The invocation port workloads call through. *)

val tracker : t -> Tracker.t
val server : t -> Sg_os.Comp.cid
val client : t -> Sg_os.Comp.cid

val ensure_alive : Sg_os.Sim.t -> Sg_os.Comp.cid -> unit
(** Micro-reboot the component via the booter if it is failed. *)

val recover_desc :
  ?even_dead:bool -> ?reason:Sg_obs.Event.reason -> Sg_os.Sim.t -> t ->
  Tracker.desc -> unit
(** On-demand (T1) recovery of one descriptor: no-op if its epoch matches
    the server's; otherwise recover its parent first (D1, possibly via a
    cross-component upcall) and replay its walk (R0). [even_dead] walks a
    closed-but-kept record (Y_dr) without resurrecting it, so children
    can still be recovered through their parent chain. [reason] tags the
    emitted {!Sg_obs.Event.Walk_begin} (default [Demand]). *)

val recover_all : Sg_os.Sim.t -> t -> unit
(** Eager recovery of every live descriptor, bracketed by
    [Recover_begin]/[Recover_end] events (T0 episode). *)

val recoveries : t -> int
(** Number of descriptor walks performed (statistics). *)
