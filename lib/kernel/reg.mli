(** The eight 32-bit registers of the simulated platform.

    The paper injects faults into six general-purpose registers plus the
    two special registers ESP and EBP (§V-A). *)

type t = EAX | EBX | ECX | EDX | ESI | EDI | ESP | EBP

val all : t array
val general : t array
(** The six general-purpose registers. *)

val to_string : t -> string
val of_string : string -> t option
val index : t -> int
(** Position in {!all}, 0–7: a dense key for per-register tables. *)

val compare : t -> t -> int
(** Orders registers by {!index}. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
