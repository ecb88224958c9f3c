(** Physical frames and hardware page tables.

    The kernel holds the actual virtual-to-physical mappings; the memory
    manager component merely *tracks* them (alias trees). When the memory
    manager is micro-rebooted its trees are lost but the kernel mappings
    survive, and recovery reflects on this table to relearn what is
    installed (paper §II-D). *)

type frame = int

type t

val key : cid:int -> vaddr:int -> int
(** The page tables' key: ([cid], [vaddr]) packed into one integer.
    Raises [Invalid_argument] unless [0 <= cid < 2^30] and
    [0 <= vaddr < 2^32]; so do {!map}, {!unmap} and {!lookup}. *)

val cid_of_key : int -> int
val vaddr_of_key : int -> int

val create : ?total_frames:int -> unit -> t
val alloc_frame : t -> frame option
(** [None] when physical memory is exhausted. *)

val free_frame : t -> frame -> unit

val map : t -> cid:int -> vaddr:int -> frame -> (unit, [ `Exists ]) result
(** Install a page-table entry for ([cid], [vaddr]). *)

val unmap : t -> cid:int -> vaddr:int -> (frame, [ `Absent ]) result
val lookup : t -> cid:int -> vaddr:int -> frame option

val mappings_of : t -> cid:int -> (int * frame) list
(** Reflection: all (vaddr, frame) entries of a component, sorted by
    vaddr. *)

val mapping_count : t -> int
