(** Automatic scenario shrinking (DESIGN.md §3.9).

    Reduces a failing (op-sequence, injection-plan) pair to a local
    minimum by a fixpoint of single-element removals — one op, one
    fault, or one [Classic] shape decrement at a time — keeping only
    reductions that still fail with the {e same} verdict class as the
    original. The result is 1-minimal: removing any single remaining
    element makes the scenario pass or change failure class.

    Shrinking is deterministic in (sut, scenario) {e including} at
    [jobs > 1]: parallel candidate evaluation always commits the
    lowest-index failing candidate, so the reduction chain — and hence
    the emitted artifact — is identical at every parallelism level. *)

val candidates : Exec.scenario -> Exec.scenario list
(** The one-removal neighborhood of a scenario: each op removed, each
    fault removed, and each [Classic] shape axis decremented (floored
    at 1). This is exactly the reduction step [shrink] iterates, which
    makes it the 1-minimality certificate: a shrunk scenario is minimal
    iff no candidate still fails with the preserved class. *)

val fails : sut:Exec.sut -> cls:string -> Exec.scenario -> bool
(** Does the scenario fail with verdict class [cls]? Any exception from
    execution counts as "no" (the shrinker never commits a reduction it
    cannot judge). *)

type stats = {
  sh_sweeps : int;  (** committed removals + the final fruitless sweep *)
  sh_evals : int;
      (** candidate verdicts consumed (plus the reference run); the
          count is [jobs]-independent — speculative evaluations
          discarded past a sweep's commit point are not included *)
  sh_removed : int;  (** elements removed from the original scenario *)
}

val shrink :
  ?jobs:int -> ?sut:Exec.sut -> Exec.scenario -> Exec.scenario * string * stats
(** [shrink ~jobs ~sut sc] returns the minimal scenario, the preserved
    verdict class and reduction statistics. Raises [Invalid_argument]
    when [sc] passes (nothing to shrink). *)
