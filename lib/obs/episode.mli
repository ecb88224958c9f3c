(** Recovery-episode stitching over the structured event stream.

    An episode is everything recovery did about one detected fault: the
    causal DAG from the {!Event.Crash} through the micro-reboot, thread
    diversion, upcalls/reflections, the descriptor walks and recover-all
    chains it triggered, and the replay spans into the rebooted server —
    terminating at the first successful post-reboot invocation of that
    server (the paper's first-access recovery latency, Fig. 6/7).

    Stitching is a pure fold: feed it a live sink subscription or a
    JSON-lines replay, same result. Node ids are assigned in stream
    order, so [n_deps] always references earlier ids and [ep_nodes] is
    topologically sorted — {!Profile} exploits this for its single-pass
    critical-path computation. *)

type node_kind =
  | N_detect of { detector : string }
  | N_reboot of { epoch : int; image_kb : int; cost_ns : int }
  | N_divert of { victim : int }
  | N_upcall of { fn : string }
  | N_reflect of { fn : string }
  | N_walk of {
      client : int;
      iface : string;
      desc : int;
      reason : Event.reason;
      ok : bool;  (** completed (vs interrupted or episode-truncated) *)
    }
  | N_recover of { client : int; iface : string; ok : bool }
  | N_span of { span : int; client : int; fn : string; ok : bool }

type node = {
  n_id : int;  (** episode-local, dense, stream order *)
  n_kind : node_kind;
  n_tid : int;
  n_start_ns : int;
  n_end_ns : int;
      (** equals [n_start_ns] for instantaneous activities; activities
          still open at episode completion are truncated to the episode
          end *)
  n_deps : int list;  (** earlier node ids this activity depends on *)
}

type trigger = {
  tr_fn : string;
  tr_reg : string;
  tr_bit : int;
  tr_outcome : string;
}

type t = {
  ep_cid : int;  (** the crashed component *)
  ep_seq : int;  (** stream sequence number of the Crash event *)
  ep_detect_ns : int;
  ep_trigger : trigger option;  (** the SWIFI injection, when one preceded *)
  ep_complete : bool;
  ep_end_ns : int;
      (** first successful post-reboot invocation end; for incomplete
          episodes, the end of the last attached activity *)
  ep_nodes : node list;
}

val node_label : node -> string
val duration_ns : node -> int

val span_ns : t -> int
(** Detection to episode end, in virtual nanoseconds. *)

val over_bound_by : bound_of:(int -> int option) -> t list -> t list
(** The complete episodes whose span exceeds their static bound — the
    counterexamples a recovery-latency bound must never see. [bound_of
    cid] yields the bound for the crashed component (or [None] to skip
    it): the oracle adapter a mixed-service campaign uses, where
    episodes of different services are judged against different
    {!Sg_analysis.Wcr} bounds. *)

(** {2 Stitching} *)

type builder

val builder : unit -> builder

val feed : builder -> Event.t -> unit
(** Fold one event, in stream order. A ["sys-reboot"] note (chunk
    boundary in a concatenated campaign trace) abandons all in-flight
    episodes as incomplete. *)

val attach : builder -> Sink.t -> unit
(** {!feed} every later emission of the sink, without boxing an
    {!Event.t} for it ({!Sink.subscribe_fold}). *)

val finish : builder -> t list
(** Seal remaining in-flight episodes as incomplete and return every
    episode in detection order. *)

val of_events : Event.t list -> t list
(** [finish] of a fresh builder fed the whole list. *)
