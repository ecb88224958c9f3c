(** Pluggable structured-event sink.

    A sink timestamps and sequence-numbers every {!Event.t}, fans it out
    to subscribers (metrics, live checkers, exporters), and retains
    events per policy:

    - [All] keeps the full in-order stream — what {!Check.run} and
      [sgtrace dump] want; unbounded, so opt in per run.
    - [Recovery] (default) keeps only recovery-relevant events (crashes,
      reboots, diverts, walks, upcalls, injections) — bounded in
      practice by fault activity, not by request volume. Every crash of
      a run is kept, so this log is where crash markers (the Fig 7
      timeline) and recovery post-mortems read from. *)

type retention = All | Recovery

type t

val create : unit -> t
(** A sink with retention [Recovery]. *)

val retention : t -> retention
val set_retention : t -> retention -> unit
(** The one way to choose a policy; set it before the events it should
    keep are emitted. *)

val emit : t -> at_ns:int -> tid:int -> Event.kind -> unit
(** Stamp, retain per policy, and notify all subscribers. *)

val subscribe : t -> (Event.t -> unit) -> unit
(** Called synchronously on every emission, regardless of retention. *)

val subscribe_fold :
  t -> (seq:int -> at_ns:int -> tid:int -> Event.kind -> unit) -> unit
(** Like {!subscribe}, but receives the emission unboxed: no {!Event.t}
    record is built for it. With the default [Recovery] policy most
    emissions are spans that nobody retains; folding over the raw fields
    keeps the dispatcher hot path allocation-free. The metrics fold and
    live episode stitching attach this way. *)

val events : t -> Event.t list
(** Retained events, oldest first. *)

val count : t -> int
(** Number of retained events. *)

val clear : t -> unit
