(** Recovery metrics folded from the event stream.

    A {!t} is a pure consumer: attach it to a sink (or {!feed} it events
    replayed from a JSON-lines dump) and read counters. Every simulator
    attaches one, so it keeps only what a live run reads: invocations,
    micro-reboots, descriptor walks per client, SWIFI outcome tallies,
    and the first post-reboot access latency. Every other fact of a run
    (span outcomes, crashes, reboot cost, diverts, upcalls, storage ops,
    perturbations, HTTP status, span, walk and request-sojourn
    latencies) comes from {!summary} over a held stream. *)

type t

val create : unit -> t

val feed : t -> Event.t -> unit
(** Fold one event. Order matters for first-access pairing. *)

val attach : t -> Sink.t -> unit
(** Subscribe [feed] to a sink. *)

val invocations : t -> int
(** Invocation spans begun. *)

val reboots : t -> int
(** Micro-reboots. *)

val walks : ?client:int -> t -> int
(** Descriptor walks, total or those client [client] made. *)

val injections : t -> int
(** SWIFI injections ({!Event.Inject}). *)

val outcome_count : t -> string -> int
(** Injections whose classified outcome is the given name. *)

val first_access_hist : t -> Hist.t
(** Virtual ns from a component's micro-reboot to the first subsequent
    successful invocation of it (the paper's first-access recovery
    latency). *)

type summary = {
  metrics : t;  (** a fresh {!t} fed the whole stream *)
  spans_ok : int;  (** invocation spans that ended [ok] *)
  spans_fault : int;  (** invocation spans that ended faulted *)
  crashes : int;
  reboot_ns : int;  (** summed cost of the micro-reboots *)
  diverts : int;
  upcalls : int;
  storage_ops : int;
  perturbs : int;
      (** adversary perturbations fired ({!Event.Perturb}), counted apart
          from SWIFI injections so episode attribution stays exact *)
  perturbs_in_walk : int;  (** those fired on a recovery-walk replay *)
  http_requests : int;
  http_errors : int;  (** HTTP responses with status 400 or above *)
  span_hist : Hist.t;  (** begin to [ok] end of each invocation span *)
  walk_hist : Hist.t;  (** begin to [ok] end of each descriptor walk *)
  sojourn_hist : Hist.t;
      (** arrival to finish of each open-loop request ({!Event.Http_req}),
          queueing included *)
}

val summary : Event.t list -> summary
(** One offline pass over a stream in order. A duplicate span begin
    replaces the begin time, an end with no open begin is ignored, and
    only [ok] ends are recorded. A walk end closes the innermost open
    walk of the same (client, server) on its thread; walks it does not
    match stay open. *)

val pp_summary : Format.formatter -> Event.t list -> unit
(** The {!summary} of a stream, as text. *)
