(** Open-loop load generation with per-request latency spans.

    Replaces the closed-loop [Abench] client loop for latency studies:
    arrivals are scheduled by a stochastic process on the virtual clock
    (independent of completions), a bounded accept queue turns overload
    into 503 drops, and every request emits an {!Sg_obs.Event.Http_req}
    span for {!Sg_obs.Reqjoin} to attribute against recovery episodes.

    One integer seed determines the whole execution: the master Rng is
    {!Sg_util.Rng.streams}-split into arrival, client-identity and
    connection streams, and the simulator is built from the same seed.
    {!sweep} fans fault periods out over {!Sg_util.Pool} and is
    byte-identical at every [jobs]. *)

type arrival =
  | Poisson of { rate_rps : float }  (** exponential inter-arrivals *)
  | Bursty of {
      base_rps : float;
      burst_rps : float;
      quiet_ms : float;  (** mean dwell in the base state *)
      burst_ms : float;  (** mean dwell in the burst state *)
    }
      (** two-state MMPP: exponential dwell times, state re-evaluated at
          arrival points *)

type config = {
  lg_arrival : arrival;
  lg_requests : int;  (** total arrivals to schedule *)
  lg_clients : int;  (** client-id space; each arrival draws one *)
  lg_workers : int;  (** concurrent in-flight request limit *)
  lg_queue_cap : int;  (** accept-queue bound; beyond it, 503 drop *)
  lg_keepalive : float;  (** probability a request reuses a connection *)
  lg_conn_setup_ns : int;  (** setup charge for a fresh connection *)
  lg_seed : int;
}

val default : config
(** Poisson 12k req/s, 20k requests, 1M client ids, 10 workers,
    queue cap 200, 90% keep-alive, seed 42. *)

val validate : config -> (unit, string) result
(** [Error] names the first violated rule: rates and dwell times must be
    finite and positive, [lg_keepalive] within [0, 1], and the request,
    client, worker and queue counts positive. *)

val interarrivals : arrival -> seed:int -> n:int -> int array
(** The first [n] inter-arrival gaps (ns) that {!run} would schedule
    for this master seed — a pure view of arrival stream 0, for
    distribution tests. Raises [Invalid_argument] on an arrival process
    {!validate} rejects. *)

type result = {
  lr_reqs : Sg_obs.Reqjoin.req list;  (** in arrival order *)
  lr_faults : int;
  lr_start_ns : int;
  lr_end_ns : int;
}

val run :
  ?fault_period_ns:int -> config -> Sg_components.Sysbuild.system -> Server.t ->
  result
(** Drive one open-loop run against an installed server, then
    [Sim.run] to completion. With [fault_period_ns], a SWIFI thread
    crashes a rotating system service each period (as [Abench.run]).
    Raises [Invalid_argument] on a config {!validate} rejects or when
    [fault_period_ns <= 0], and
    [Failure] if the simulation deadlocks or faults fatally. *)

type outcome = {
  oc_fault_period_ns : int option;
  oc_result : result;
  oc_join : Sg_obs.Reqjoin.t;
  oc_reboots : int;
}

val run_open :
  mode:Sg_components.Sysbuild.mode -> ?fault_period_ns:int -> config -> outcome
(** Build a fresh system from [cfg.lg_seed], install the web server,
    {!run}, and join the request spans against the recovery episodes
    stitched live from the run's event stream. *)

val sweep :
  ?jobs:int ->
  mode:Sg_components.Sysbuild.mode ->
  periods:int option list ->
  config ->
  outcome list
(** One {!run_open} per fault period ([None] = fault-free), fanned out
    over the deterministic pool; outcomes are returned in [periods]
    order and are byte-identical at every [jobs]. *)
