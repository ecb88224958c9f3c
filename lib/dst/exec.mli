(** Scenario execution and the DST oracle (DESIGN.md §3.9).

    A scenario is the replayable unit of a DST campaign: a seed, a
    workload (either a generated op sequence or one of the paper's six
    parameterized workloads) and an injection {!Plan}. [run] executes it
    on a fresh simulator and judges the run with the combined oracle —
    workload postconditions, the {!Sg_obs.Check} trace rules, and the
    {!Sg_analysis.Wcr} static recovery-latency bounds via
    {!Sg_obs.Episode.over_bound_by}. Execution is a pure function of
    (sut, scenario): identical scenarios produce identical verdicts,
    event counts and virtual times, which is what makes shrinking and
    artifact replay sound. *)

type workload =
  | Ops of Gen.op list
  | Classic of { iface : string; iters : int; knob : int }
      (** one of the six §V-B workloads, [iters] iterations of the
          shape [~knob] gives it ({!Sg_components.Workloads.setup});
          [iters] and [knob] are at least 1 *)

type scenario = {
  sc_seed : int;  (** simulator seed (build + any internal draws) *)
  sc_workload : workload;
  sc_plan : Plan.fault list;
}

type sut = Pristine | Mutant of Sg_analysis.Mutate.mutant
(** What to run against: the shipped SuperGlue stub set, or the same
    set with one interface's spec replaced by a mutant. Compiling a
    mutant may raise — callers treat a compile error as a (trivially)
    detected mutant. *)

type verdict =
  | Pass
  | Fail_postcond of string list  (** workload invariants violated *)
  | Fail_check of string list  (** trace-rule violations, positioned *)
  | Fail_over_bound of (string * int * int) list
      (** (iface, episode span ns, static bound ns) *)
  | Fail_fatal of string
      (** unrecoverable result the plan does not explain: a deadlock,
          an uncaught workload exception (spin guard, dispatch budget)
          or a fatal not matching the last injection's outcome *)

type adversary_obs = {
  ao_fired : bool;  (** the armed perturbation reached its edge *)
  ao_errors : int;
      (** post-fire [Error] replies seen by clients of the perturbed
          interface — the "detected" signal of an adversary run *)
}

type outcome = {
  oc_verdict : verdict;
  oc_result : Sg_os.Sim.run_result;
  oc_events : int;  (** events in the observed stream *)
  oc_storage_faults : int;  (** armed storage-write faults that fired *)
  oc_stream : Sg_obs.Event.t list;  (** the full event stream, in order *)
  oc_episodes : Sg_obs.Episode.t list;  (** stitched recovery episodes *)
  oc_adversary : adversary_obs option;
      (** present iff the plan carried a resolvable {!Plan.Perturb} *)
}

val sut_label : sut -> string
(** ["superglue"] or ["mutant:<id>"], the artifact's [sut] field. *)

val verdict_class : verdict -> string
(** ["pass" | "postcond" | "check" | "over-bound" | "fatal"] — the
    equivalence the shrinker preserves. *)

val verdict_detail : verdict -> string list

val services_of_workload : workload -> string list

val run : ?sut:sut -> scenario -> outcome
(** Build the system, arm the plan (dispatch-hook faults, storage write
    faults, and — for a {!Plan.Perturb} — the {!Sg_c3.Adversary} shared
    by every client stub), interpret the workload, run to quiescence and
    judge. Deterministic in (sut, scenario). A [Perturb] naming an
    unknown interface, function or field is inert. Every other service
    name must be one of the six ({!Artifact.of_string} rejects any
    other): an unknown one raises [Invalid_argument], or in a
    {!Gen.Restart} op fails the run as fatal. *)
