(** Static worst-case recovery-latency bounds (DESIGN.md §3.8).

    For each (crashed service, client interface) pair, an upper bound on
    the span of any single recovery episode the dynamic profiler
    ({!Sg_obs.Episode}) can stitch, computed from the compiled state
    machine and the calibrated cost model alone. The crashed service's
    own clients pay the full episode —

    [direct(S) = dispatch + reboot(S) + t0(S) + walks(S) + d0(S) + access(S)]

    — where the walk count is statically bounded by the interface's
    [desc_table_cap] (SG014 fires when it is missing, and the bound is
    then [None]). Other interfaces feel the crash only through the
    wakeup-dependency digraph: a chained client adds one wakeup
    invocation per hop, an unrelated client only its own first access.

    Every term is linear in the cost constants, so {!Sg_kernel.Cost.scale}
    commutes with the bound up to the unscaled usage terms (affine
    linearity — tested in [test/test_analysis.ml]). *)

type params = {
  p_cost : Sg_kernel.Cost.t;
  p_image_kb : (string * int) list;
      (** per-service image KB; unknown services default to 64 *)
  p_usage_ns : (string * int) list;
      (** per-service worst-case usage duration of one call; default 0 *)
  p_app_clients : int;  (** application clients per service *)
  p_thread_cap : int;  (** max threads blocked inside one service *)
  p_wakeup_deps : (string * string * string) list;
}

val default_params : params
(** The evaluation system: {!Sg_components.Sysbuild.image_kb},
    {!Sg_components.Profiles} durations, 2 application clients, 8
    threads, {!Sg_components.Sysbuild.wakeup_deps}. *)

type breakdown = {
  b_service : string;
  b_image_kb : int;
  b_reboot_ns : int;
  b_t0_ns : int;
  b_walk_len : int;  (** longest recovery plan, in replayed calls *)
  b_walk_one_ns : int;  (** one full walk of one descriptor *)
  b_cap : int option;  (** [desc_table_cap]; [None] = unbounded *)
  b_clients : int;
  b_walks_ns : int option;
  b_d0_ns : int;
  b_access_ns : int;
  b_direct_ns : int option;
}

type kind =
  | Direct  (** the client calls the crashed service itself *)
  | Transitive of int  (** chained through [n] wakeup-dependency edges *)
  | Unrelated  (** the crash is invisible at this interface *)

type pair = {
  p_crashed : string;
  p_client : string;
  p_kind : kind;
  p_bound_ns : int option;
}

type report = {
  r_cost : Sg_kernel.Cost.t;
  r_services : breakdown list;
  r_pairs : pair list;
}

val analyze : ?params:params -> Superglue.Compiler.artifact list -> report
(** Bounds for every (crashed, client) pair over the given artifacts
    (all pairs, including crashed = client). *)

val bound_for : report -> crashed:string -> client:string -> int option
(** The bound for one pair; [None] if the pair is absent or unbounded. *)

val walk_len : Superglue.Machine.t -> int
val kind_to_string : kind -> string

val render : report -> string
(** The human table [sgc bound] prints. *)

val to_json : report -> Sg_util.Json.t
(** [{"version":1,"schema":"sgc-bound","cost":{...},"services":[...],
    "pairs":[...]}]; unbounded values render as [null]. *)
