(** The benchmark's four workloads.

    Each workload turns a seed into a fixed, ordered set of ops; the
    suite runs the set over and over until its time is up, so every run
    of one seed, on any commit, processes the same inputs. An op is timed
    as one call; what it returned is judged afterwards, outside the
    timed region. Every workload runs on the SuperGlue interpreted stub
    set ({!Superglue.Stubset.mode}), on one domain. *)

type outcome = {
  o_work : int;  (** work units the op completed *)
  o_digest : int array;
      (** deterministic outputs; every run of the op must reproduce them,
          traced or not *)
  o_errors : string list;  (** failed correctness checks; [] when correct *)
  o_vt : Sg_obs.Hist.t -> unit;
      (** adds the op's virtual-time latency samples to a histogram made
          by the workload's [vt_hist] *)
  o_fail : int * int;
      (** (failed, attempted) in the workload's own sense: unrecovered
          activated faults, failing DST seeds, or unserved requests *)
  o_failing : string list;  (** failing DST seeds and web runs, one line each *)
}

type t = {
  unit_name : string;  (** the work unit, singular *)
  ops : int;  (** ops in one pass over the set *)
  vt_hist : unit -> Sg_obs.Hist.t;
  run : traced:bool -> int -> unit -> outcome;
      (** [run ~traced k] performs op [k] of the set and returns the
          judge of its result. Traced ops record ledger spans around
          each layer call and count per-layer work; the judge is to be
          called after the op's time is taken. *)
  extra : unit -> (string * float) list;
      (** workload-specific per-layer values accumulated over every op
          judged so far (the web workload's generator lateness) *)
}

val names : string list
(** ["campaign"; "campaign-trace"; "dst"; "web"] *)

val default_ops : string -> int
(** Ops in one pass at the benchmark's size. *)

val make : string -> seed:int -> ops:int -> t
(** Raises [Invalid_argument] for an unknown workload name. *)

val warm_caches : unit -> unit
(** Compile the six builtin interfaces (process-wide memo). *)

val setup_probes : unit -> unit
(** Probe spans for the set-up layers: a cold compile of each builtin
    interface, a cached builtin lookup and the static {!Sg_analysis.Wcr}
    analysis. *)

val stub_probes : seed:int -> (string * float) list
(** Host-time Fig 6(a): a short fault-free web slice per stub backend
    (base, c3, superglue, superglue-gen). Returns host ns of [Sim.run]
    per invocation for [base] and, for each stubbed backend, its excess
    over [base]. *)
