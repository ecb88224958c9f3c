(** The fault-injection campaign of paper §V-D (Table II).

    For each target service, its §V-B workload runs repeatedly while the
    SWIFI injector periodically flips register bits in threads executing
    inside the target. After an unrecoverable fault the whole system is
    rebooted (a fresh simulator) and the campaign resumes, until the
    requested number of faults has been injected.

    A detected fail-stop fault counts as *recovered* only when the
    workload run it occurred in subsequently completes with all
    postconditions intact — the paper's "continued execution that abides
    by the target component and workload specifications". *)

type row = {
  r_iface : string;
  r_injected : int;
  r_recovered : int;
  r_segfault : int;  (** not recovered: system segfault *)
  r_propagated : int;  (** not recovered: fault propagated to a client *)
  r_other : int;  (** not recovered: hang or failed postconditions *)
  r_undetected : int;
  r_reboots : int;  (** micro-reboots performed across the campaign *)
  r_first_access : Sg_obs.Hist.t;
      (** reboot-to-first-successful-access latency distribution, merged
          across chunks with {!Sg_obs.Hist.merge} *)
}

val empty : string -> row
(** A zero row for the given interface. *)

val add : row -> row -> row
(** Pointwise sum of the counts ([r_iface] taken from the left operand).
    Associative and order-independent, which is what lets {!Pardriver}
    merge chunk rows computed on different domains. *)

val run_chunk :
  ?on_event:(Sg_obs.Event.t -> unit) ->
  ?episodes:Sg_obs.Episode.builder ->
  mode:Sg_components.Sysbuild.mode ->
  iface:string ->
  seed:int ->
  period_ns:int ->
  iters:int ->
  budget:int ->
  cmon_period_ns:int option ->
  unit ->
  int * row
(** One workload execution on a fresh simulator with the injector armed
    for at most [budget] faults; returns the number actually injected
    and the accounted row. Chunks are deterministic functions of
    [(mode, iface, seed)] plus the injection parameters, and share no
    mutable state — {!Pardriver} runs them on separate domains.
    [on_event] is subscribed to the chunk simulator's sink, and the
    [episodes] builder attached to it ({!Sg_obs.Episode.attach}): the
    caller finishes the builder to get the chunk's recovery episodes.
    The row's [r_first_access] is the chunk's own histogram, not a
    copy. *)

val period_ns : int
(** Virtual time between injections in {!run}'s chunks: 20 µs. *)

val chunk_iters : int
(** Workload iterations of each of {!run}'s chunks: 400. *)

val run :
  ?seed:int ->
  ?cmon_period_ns:int ->
  ?on_event:(Sg_obs.Event.t -> unit) ->
  mode:Sg_components.Sysbuild.mode ->
  iface:string ->
  injections:int ->
  unit ->
  row
(** [run ~mode ~iface ~injections ()] injects exactly [injections] faults
    (the paper uses 500 per component). With [cmon_period_ns] the C'MON
    latent-fault monitor is armed: loop-bound hangs are detected within
    a budget overrun plus one monitor period and recovered like other
    fail-stop faults, emptying the "other" column. [on_event] is
    subscribed to every chunk simulator's observability sink, in run
    order — the full structured event stream of the campaign.
    {!Pardriver.run}'s [on_episodes] stitches each chunk's recovery
    episodes. *)

val activation_ratio : row -> float
(** |F_a| / |F_a ∪ F_u| — the fraction of injected faults activated. *)

val success_rate : row -> float
(** |F_r| / |F_a| — recovered over activated. *)

type bounds = {
  b_episodes : int;  (** episodes seen *)
  b_complete : int;  (** of which complete *)
  b_max_span_ns : int;  (** largest complete span; 0 when none *)
  b_violations : Sg_obs.Episode.t list;
      (** complete episodes over their bound, most recent first *)
}
(** A streaming check of stitched episodes against a static
    recovery-latency bound ({!Sg_analysis.Wcr}) — what [--verify-bounds]
    reports. Fed chunk by chunk through {!Pardriver.run}'s
    [on_episodes], it checks a campaign of any size in memory
    proportional to its violations. *)

val no_bounds : bounds

val fold_bounds : bound_ns:int -> bounds -> Sg_obs.Episode.t list -> bounds
(** Count the episodes; check each complete one against [bound_ns].
    Incomplete episodes are skipped: their spans undercount. *)

val pp_row : Format.formatter -> row -> unit
