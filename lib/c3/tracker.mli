(** Client-side descriptor tracking.

    The interface stub on the client side of a component invocation
    tracks every descriptor the client obtained from the server: its
    state-machine state, the bounded per-descriptor data [D_dr] needed to
    recreate it (paper §III-A/B — e.g. a file's path and offset), its
    parent dependency [P_dr], and the server epoch it was last known
    consistent with. This bounded encoding replaces an unbounded
    operation log (paper §II-C).

    Because a recovered server may hand out a different concrete id when
    a descriptor is recreated, the tracker separates the client-visible
    id (stable) from the server id (remapped on recovery). *)

type parent =
  | Local of int  (** parent descriptor in the same client ([Parent]) *)
  | Cross of { client : Sg_os.Comp.cid; id : int }
      (** parent descriptor created by another component ([XCParent]) *)

type desc = {
  d_id : int;  (** client-visible id, stable across recoveries *)
  mutable d_server_id : int;  (** id understood by the (current) server *)
  mutable d_state : string;  (** state-machine state, ["s0"] or ["after:<fn>"] *)
  mutable d_meta : (string * Sg_os.Comp.value) list;  (** tracked data D_dr *)
  d_parent : parent option;  (** {!children} indexes records by it *)
  mutable d_epoch : int;  (** server epoch at last consistency point *)
  mutable d_live : bool;  (** false once terminated (Y_dr may keep meta) *)
}

type flavor = C3 | Superglue
(** Which stub implementation is charged for tracking actions: the
    hand-specialized C³ code or the SuperGlue interpreted stub (slightly
    dearer per action, paper Fig 6(a)). *)

type t

val create : flavor:flavor -> unit -> t
val flavor : t -> flavor

val track_charge : t -> Sg_os.Sim.t -> unit
(** Charge one tracking action at this stub's flavor cost. *)

val lookup_charge : t -> Sg_os.Sim.t -> unit

val add :
  t -> Sg_os.Sim.t -> ?server_id:int -> ?parent:parent ->
  state:string -> meta:(string * Sg_os.Comp.value) list -> epoch:int -> int ->
  desc
(** [add t sim ~state ~meta ~epoch id] tracks a freshly created
    descriptor (charges one tracking action). If a dead record with the
    same id exists it is replaced. *)

val fresh : t -> int
(** Allocate a stub-virtual descriptor id. A recovered server hands out
    concrete ids from a reset namespace, so a *local* descriptor's
    client-visible id is virtualized by the stub: the client holds the
    stub's id forever and the stub translates it to the server's current
    id on every invocation. *)

val rekey : t -> from:int -> to_:int -> desc option
(** Move a just-added record to its virtual key: the new record carries
    [d_id = to_] and [d_server_id = from]. *)

val find : t -> int -> desc option

val find_or_untracked : t -> int -> desc
(** [find] without boxing an option, for the per-call stub path: an
    untracked id answers a shared placeholder that is never live and
    that no caller may modify. *)

val find_exn : t -> int -> desc
val remove : t -> int -> unit
val set_state : t -> Sg_os.Sim.t -> desc -> string -> unit
val set_meta : t -> Sg_os.Sim.t -> desc -> string -> Sg_os.Comp.value -> unit
val meta : desc -> string -> Sg_os.Comp.value option
val meta_int : desc -> string -> int option
val meta_str : desc -> string -> string option
val children : t -> int -> desc list
(** Live descriptors whose parent is [Local id], in increasing id
    order. Reads only the records that name [id] as their parent (kept
    in an index by parent id), not the whole table. *)

val examined : t -> int
(** How many records {!children} has read since {!create}: a release
    that walks a subtree reads that subtree's records (its released
    ones included), whatever else the tracker holds. *)

val live : t -> desc list
(** All live descriptors, in increasing id order. *)

val count : t -> int
