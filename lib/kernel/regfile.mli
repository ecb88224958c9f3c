(** Per-thread register file.

    Each simulated thread carries the eight 32-bit registers of the
    platform; the SWIFI injector flips bits in them while the thread
    executes inside a target component (paper §V-A). *)

type t

val create : unit -> t
(** All registers zero. *)

val copy : t -> t
val get : t -> Reg.t -> Sg_util.Word32.t
val set : t -> Reg.t -> Sg_util.Word32.t -> unit

val flip_bit : t -> Reg.t -> int -> unit
(** [flip_bit t r i] models a single-event upset on bit [i] of [r]. *)

val apply_mask : t -> Reg.t -> Sg_util.Word32.t -> unit
(** XOR a full 32-bit fault mask into a register (paper's
    [0xFFFFFFFF]-mask formulation). *)

val pp : Format.formatter -> t -> unit
