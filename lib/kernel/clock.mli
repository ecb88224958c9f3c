(** Virtual time for the discrete-event simulation.

    All durations in the system are expressed in nanoseconds of virtual
    time. The paper's evaluation reports microseconds; conversion helpers
    are provided for the harness. A single [Clock.t] is owned by the
    simulator; components advance it only through [Ctx.charge]. *)

type t

val create : unit -> t
(** A clock starting at time 0. *)

val now : t -> int
(** Current virtual time in nanoseconds. *)

val advance : t -> int -> unit
(** [advance t ns] moves time forward. Raises [Invalid_argument] if [ns]
    is negative. *)

val advance_to : t -> int -> unit
(** [advance_to t deadline] jumps to an absolute time; no-op if the
    deadline is in the past. *)

val ns_of_us : float -> int
val us_of_ns : int -> float
val s_of_ns : int -> float
