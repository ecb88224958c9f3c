(** Recovery metrics folded from the event stream.

    A {!t} is a pure consumer: attach it to a sink (or {!feed} it events
    replayed from a JSON-lines dump) and read counters. Counters mirror
    what the harnesses previously kept privately: invocations per
    server, crash/reboot accounting, descriptor walks per client, SWIFI
    outcome tallies, and the first post-reboot access latency. Every
    simulator attaches one, so the fold keeps no state per span or per
    walk; span, walk and request-sojourn latencies come from
    {!latencies} over a held stream. *)

type t

val create : unit -> t

val feed : t -> Event.t -> unit
(** Fold one event. Order matters for first-access pairing. *)

val attach : t -> Sink.t -> unit
(** Subscribe [feed] to a sink. *)

val invocations : ?cid:int -> t -> int
(** Total invocation spans begun, or those entering server [cid]. *)

val reboots : ?cid:int -> t -> int
val crashes : ?cid:int -> t -> int

val walks : ?client:int -> ?server:int -> t -> int
(** Descriptor walks, total or filtered by one side. *)

val spans_ok : t -> int
val spans_fault : t -> int
val upcalls : t -> int
val diverts : t -> int
val storage_ops : t -> int
val injections : t -> int

val perturbs : t -> int
(** Adversary perturbations fired ({!Event.Perturb}), counted apart from
    SWIFI injections so episode attribution stays exact. *)

val perturbs_in_walk : t -> int
(** The subset of {!perturbs} that fired on a recovery-walk replay. *)

val outcome_count : t -> string -> int
val reboot_ns_total : t -> int
val http_requests : t -> int
val http_errors : t -> int

val first_access_hist : t -> Hist.t
(** Virtual ns from a component's micro-reboot to the first subsequent
    successful invocation of it (the paper's first-access recovery
    latency). *)

type latencies = {
  span_hist : Hist.t;  (** begin to [ok] end of each invocation span *)
  walk_hist : Hist.t;  (** begin to [ok] end of each descriptor walk *)
  sojourn_hist : Hist.t;
      (** arrival to finish of each open-loop request ({!Event.Http_req}),
          queueing included *)
}

val latencies : Event.t list -> latencies
(** One offline pass over a stream in order. A duplicate span begin
    replaces the begin time, an end with no open begin is ignored, and
    only [ok] ends are recorded. A walk end closes the innermost open
    walk of the same (client, server) on its thread; walks it does not
    match stay open. *)

val pp_summary : Event.t list -> Format.formatter -> t -> unit
(** [pp_summary events]: the counters of [t] and the {!latencies} of
    [events], the stream [t] was fed. *)
