(** An [ab]-style closed-loop HTTP load generator (paper §V-E: "ab sends
    50000 requests with a maximum of 10 requests concurrently").

    Spawns 10 client fibers (fixed, as in the paper) in a network-client
    component; each sends real HTTP request text to the server and
    validates the response. Throughput is completed requests over the
    virtual time the benchmark window took. Optionally a fault-injection
    thread crashes a rotating system service at a fixed period during
    the run. *)

type result = {
  ab_requests : int;  (** requests completed *)
  ab_errors : int;  (** non-200 responses or parse failures *)
  ab_faults : int;  (** service crashes injected during the run *)
  ab_sim_ns : int;  (** virtual duration of the benchmark window *)
  ab_rps : float;  (** requests per (virtual) second *)
}

val run :
  ?fault_period_ns:int ->
  requests:int ->
  Sg_components.Sysbuild.system ->
  Server.t ->
  result
(** Run to completion ([Sg_os.Sim.run] inside). [fault_period_ns], when
    given, crashes one system service every period, rotating over the
    six services (the paper's "one crash every 10 seconds into a
    different system-level component"). Raises [Invalid_argument] when
    [fault_period_ns <= 0]. *)

val apache_reference : requests:int -> result
(** The external Apache/Linux reference point of Fig 7: a monolithic
    server model with no component invocations, calibrated to the
    paper's ≈17 600 requests/second. *)

type bucket = {
  b_start_s : float;  (** bucket start, virtual seconds *)
  b_rps : float;  (** throughput within the bucket *)
  b_crashes : int;  (** service crashes that landed in the bucket *)
}

val timeline : Sg_components.Sysbuild.system -> Server.t -> bucket list
(** The Fig 7 timeline: per-stats-tick throughput derived from the
    server's served-count samples, with every crash instant retained by
    the simulator's event sink attributed to its bucket. Call after
    {!run}. *)

val render_timeline : bucket list -> string
(** An ASCII rendering: one bar per bucket, crash markers as in the
    paper's red crosses. *)
