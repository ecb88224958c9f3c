(** The trusted kernel aggregate: clock, cost model, thread table,
    capability tables and page tables.

    This mirrors the COMPOSITE kernel's small state footprint ("mainly
    just page tables, capability tables, and threads", paper §II-E).
    Everything here is outside the fault domain. *)

type t = {
  clock : Clock.t;
  cost : Cost.t;
  threads : Ktcb.t;
  captbl : Captbl.t;
  frames : Frames.t;
}

val create : unit -> t
(** A fresh kernel with the calibrated {!Cost.default} model. *)

val now : t -> int
val charge : t -> int -> unit
(** Advance virtual time by a cost in nanoseconds. *)
