(** The storage component: redundancy for global descriptors and
    resource data.

    Two recovery mechanisms rely on it (paper §III-C):

    - {b G0} — when descriptors are globally addressable, the storage
      component keeps the mapping from each descriptor to its creating
      component so a rebooted server (whose namespace is empty) can ask
      which client to upcall into to recreate the descriptor;
    - {b G1} — when a resource carries data (e.g. RamFS file contents),
      slices [⟨id, offset, length, *data⟩] are stored redundantly, the
      [*data] being zero-copy buffer references.

    Like the kernel and the cbuf manager, the storage component is
    trusted and never fault-injected (paper §II-E). Records are grouped
    into [space]s, one per resource type (e.g. "evt", "fs"). *)

type t

val create : Sg_cbuf.Cbuf.t -> t

(** {1 Global-descriptor registry (G0)} *)

val register_desc :
  t -> Sg_os.Sim.t -> space:string -> id:int -> creator:Sg_os.Comp.cid ->
  meta:(string * Sg_os.Comp.value) list -> unit
(** Record that [creator] created descriptor [id]; overwrites any
    previous record for the same (space, id). *)

val lookup_desc :
  t -> Sg_os.Sim.t -> space:string -> id:int ->
  (Sg_os.Comp.cid * (string * Sg_os.Comp.value) list) option

val remove_desc : t -> Sg_os.Sim.t -> space:string -> id:int -> unit

val descs_in : t -> space:string -> int list
(** The registered ids of [space], ascending. *)

val max_desc_id : t -> space:string -> int
(** [List.fold_left max 0 (descs_in t ~space)] in O(1): a running max
    that [register_desc] raises and [remove_desc] rescans only when it
    removes the current max. Uncharged, like [descs_in]. *)

(** {1 Resource-data slices (G1)} *)

val put_slice :
  t -> Sg_os.Sim.t -> space:string -> id:int -> off:int -> len:int ->
  cbuf:Sg_cbuf.Cbuf.id -> unit
(** Record a data slice; a later slice overlapping an earlier one at the
    same offset replaces it. *)

val slices :
  t -> Sg_os.Sim.t -> space:string -> id:int ->
  (int * int * Sg_cbuf.Cbuf.id) list
(** All (off, len, cbuf) slices for the resource, sorted by offset. *)

val drop_slices : t -> Sg_os.Sim.t -> space:string -> id:int -> unit
val slice_count : t -> int

(** {1 Write-fault injection (DST)}

    The DST campaign layer injects transient faults into the redundancy
    path itself. A faulted write is detected by the (trusted) medium and
    retried: the writing component pays one extra operation charge and a
    ["storage-write-fault"] {!Sg_obs.Event.Note} is emitted, but the
    stored state stays correct — the store is trusted and never corrupted
    (paper §II-E), so the fault perturbs timing and interleaving only. *)

val arm_write_faults : t -> at:int list -> unit
(** Fault the [n]-th charged write operation ([register_desc] or
    [put_slice]; 1-based, counted from storage creation) for each [n] in
    [at]. Replaces any previously armed set; non-positive indices are
    ignored. *)

val write_faults_hit : t -> int
(** Armed write faults that have fired so far. *)
