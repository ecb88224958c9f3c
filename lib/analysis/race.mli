(** Recovery-interference race analysis (DESIGN.md §3.13).

    For every (recovery walk of service W, concurrent invocation edge
    (T, fn)) pair over the compiled artifacts and the system wiring,
    the pass computes which walk phase interval (stamp → replay →
    commit) the edge intersects and classifies the pair by the
    happens-before edges the stub discipline provides:

    - {e isolated}: no wakeup path couples the edge to the walk — the
      pair shares no descriptor state;
    - {e serialized}: the interleaving is ordered — replayed operands
      are server-validated, live same-service calls pass the
      recover-first (T1) check against the epoch stamped at walk
      start, cross-service wakeup channels deliver at-least-once in
      boot order;
    - {e racy}: the walk replays a {e free} captured datum (one the
      server cannot validate, [r_field]) — a perturbation timed into
      the replay interval rebinds descriptor state silently.

    Verdicts are facts of the specification and wiring, like the taint
    pass's masked/detected/silent: the pristine system yields a full
    table and zero diagnostics. SG021–SG025 fire on interference
    defects only, each validated by a seeded mutant; the verdict table
    itself is validated by the sustained recovery-racing DST adversary
    ([superglue-dst race]): racy pairs must produce a silent in-walk
    witness, isolated/serialized pairs must survive the pinned
    campaign with zero unexplained failures. *)

module Compiler = Superglue.Compiler
module Diag = Superglue.Diag

type verdict = Isolated | Serialized | Racy

val verdict_to_string : verdict -> string
val verdict_of_string : string -> verdict option

type entry = {
  r_walker : string;  (** the service whose recovery walk is in flight *)
  r_iface : string;  (** the concurrent invocation's interface *)
  r_fn : string;  (** the concurrent invocation's function *)
  r_phase : string;
      (** walk interval the edge intersects: ["stamp"], ["replay"],
          ["commit"], or ["none"] for isolated pairs *)
  r_field : string;
      (** the free captured datum a racy replay rebinds ([""]
          otherwise): what the dynamic witness hunt perturbs *)
  r_verdict : verdict;
  r_reason : string;
}

type walk = {
  w_iface : string;
  w_replayed : string list;
      (** functions some recovery plan replays (plan path and restore
          calls): the contents of the replay interval *)
}

type report = {
  r_walks : walk list;
  r_entries : entry list;
  r_diags : Diag.t list;
}

val free_data : Superglue.Ir.t -> string -> string list
(** The free captured datums of a function: [ADescData] parameters not
    echoed as its annotated return value — what a racy replay rebinds.
    The DST race campaign uses the complement (anchor and key
    operands) when it perturbs a pair whose verdict claims order. *)

val analyze :
  ?wakeup_deps:(string * string * string) list ->
  Compiler.artifact list ->
  report
(** Classify every (walker, edge) pair and report SG021–SG025
    interference findings. [wakeup_deps] defaults to the real system
    wiring ({!Sysgraph.default_wakeup_deps}); the boot order does not
    enter the verdicts (SG012/SG015 check it). Entry order is
    deterministic: walkers then edges in artifact order, functions in
    declaration order. *)

val render : report -> string
(** The verdict table grouped by walker, prefixed by each service's
    walk interval structure, with a one-line census and the findings
    appended. *)

val report_to_json : report -> Sg_util.Json.t
(** Schema ["sgc-race"], version 1: walks, entries, the verdict census
    and the SG021–SG025 diagnostics. *)
