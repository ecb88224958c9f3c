(** DST campaign driver (DESIGN.md §3.9): seeds to scenarios to
    verdicts to artifacts.

    One integer seed determines the whole scenario. The master
    {!Sg_util.Rng.t} is split into independent workload and plan
    streams, so for a given seed the generated op sequence is stable
    under plan-configuration changes and vice versa. Campaigns are
    embarrassingly parallel across seeds and bit-reproducible. *)

type profile = {
  pf_mix : Gen.mix;  (** op-mix weights for generated sequences *)
  pf_plan : Plan.config;  (** injection-plan weights *)
  pf_len : int;  (** ops per generated sequence *)
  pf_classic_every : int;
      (** seeds divisible by this run a {!Exec.Classic} (paper §V-B)
          workload variant instead of a generated sequence; 0 = never *)
  pf_classic_iface : string option;
      (** pin classic variants to one service; [None] draws one *)
}

val default_profile : profile
val focus_profile : string -> profile
(** Concentrated on one service — what mutant hunts use. *)

val scenario_of_seed : ?profile:profile -> int -> Exec.scenario

val find_mutant : string -> Sg_analysis.Mutate.mutant option
(** Look up a builtin mutant by its ["iface/operator/N"] id. *)

val sut_of_label : string -> Exec.sut option
(** Inverse of {!Exec.sut_label}: ["superglue"] or ["mutant:<id>"]. *)

type run_report = {
  rr_seed : int;
  rr_scenario : Exec.scenario;
  rr_result : (Exec.outcome, string) result;
      (** [Error msg] is a mutant compile error: detected trivially,
          before any scenario ran *)
}

val run_seed : ?sut:Exec.sut -> ?profile:profile -> int -> run_report
val report_failed : run_report -> bool

val run_seeds :
  ?sut:Exec.sut ->
  ?profile:profile ->
  ?jobs:int ->
  ?on_report:(run_report -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  run_report option
(** Campaign over the seed range [\[seed, seed+count)], fanned across
    [jobs] domains ({!Sg_util.Pool}). [on_report] is called in the
    calling domain, in seed order, once per seed up to and including
    the first failing one (which is also returned); later seeds may
    execute speculatively but their reports are discarded. Both the
    delivered report sequence and the returned failure are identical
    at every [jobs] — [superglue-dst run --jobs N] output is
    byte-identical to the sequential run. *)

val shrink_to_artifact :
  ?jobs:int -> ?sut:Exec.sut -> Exec.scenario -> Artifact.t * Shrink.stats
(** Shrink a failing scenario and package the minimum as an artifact. *)

val replay : Artifact.t -> (Exec.outcome * bool, string) result
(** Rerun an artifact's scenario against its recorded sut. [Ok (o, b)]:
    the outcome and whether its verdict class matches the recorded one.
    [Error]: unknown sut or mutant compile error. *)

(** {2 Grading a static verdict table}

    Dynamic validation of a static verdict table ({!Sg_analysis.Taint},
    {!Sg_analysis.Race}): every entry is replayed against live systems
    carrying a {!Plan.Perturb} on its edge, and the observed outcome
    classes are checked against the entry's claim by one grader. *)

type obs = Ob_unfired | Ob_masked | Ob_detected | Ob_silent
    (** What one perturbed run showed: the perturbation never reached
        its edge; it fired and the run passed signal-free (masked); a
        client of the perturbed interface saw an [Error] reply after the
        fire (detected); or the run failed with no such signal (silent
        corruption). *)

val obs_label : obs -> string
val classify_outcome : Exec.outcome -> obs

type tally = {
  n_unfired : int;
  n_masked : int;
  n_detected : int;
  n_silent : int;
}
(** Observation counts over one entry's scanned scenarios. *)

type 'e row = {
  rw_entry : 'e;
  rw_tally : tally;
  rw_witness : Exec.scenario option;
      (** first silent-observation scenario, for a hunting claim *)
  rw_ok : bool;
      (** hunting claim: [tb_discharged] of the tally. Any other claim:
          no silent observation in the whole budget. *)
}

type 'e table = {
  tb_entries : 'e list;  (** the verdict table, in table order *)
  tb_scenario : 'e -> int -> int -> Exec.scenario;
      (** [tb_scenario e k s]: the scenario of scan index [k] at seed
          [s] grading entry [e] *)
  tb_hunts : 'e -> bool;
      (** whether the entry's claim hunts a silent witness *)
  tb_discharged : tally -> bool;
      (** the ok rule of a hunting claim *)
}

val grade :
  ?jobs:int ->
  ?on_row:('e row -> unit) ->
  seed:int ->
  per_entry:int ->
  'e table ->
  'e row list * int
(** Grade a whole table: entry [i] scans scenarios [tb_scenario e k
    (seed + i*per_entry*8 + k)]. A claim that does not hunt runs exactly
    [per_entry] scenarios; a hunting claim scans up to [8 * per_entry],
    stopping at its first witness. Returns the rows in table order plus
    the mismatch count (rows not ok). [on_row] is called in the calling
    domain, in table order; rows and mismatch count are identical at
    every [jobs]. *)

(** {2 The edge-adversary table} *)

val adversary_scenario :
  iface:string -> fn:string -> field:string -> nth:int -> int -> Exec.scenario
(** The scenario grading one taint-table entry at one seed: the seed's
    focus-profile workload with its plan replaced by the single
    {!Plan.Perturb}. *)

val adversary_table : unit -> Sg_analysis.Taint.entry table
(** The pristine taint verdict table: scan index [k] anchors the
    perturbation at invocation [(k mod 3) + 1]. A Silent claim hunts a
    witness; a Masked/Detected claim must stay silent-free. *)

(** {2 The recovery-interference (race) table}

    Every (recovery walk, concurrent invocation) pair is replayed
    against a live system carrying a fail-stop of the walker plus a
    {e sustained, recovery-racing} {!Plan.Perturb} ([pb_every] and
    [pb_walk] set) on the pair's edge — the perturbation fires on every
    walk-replay invocation of the edge, the interleaving the verdict
    speaks about. *)

val race_scenario :
  walker:string ->
  iface:string ->
  fn:string ->
  field:string ->
  crash_nth:int ->
  int ->
  Exec.scenario
(** The scenario grading one pair at one seed: the seed's focus-profile
    workload on [iface] with its plan replaced by
    [Crash walker @ crash_nth] followed by the sustained in-walk
    {!Plan.Perturb} on [(iface, fn, field)]. *)

val race_table : unit -> Sg_analysis.Race.entry table
(** The pristine race verdict table: scan index [k] anchors the
    walker's crash at dispatch [(k mod 3) + 1]. A Racy claim corrupts
    its named free datum and hunts a witness; it is ok with a silent
    in-walk witness, or — for a datum the workload never reads back —
    when the corrupted replay was accepted (it fired with zero [Error]
    replies on the edge over the whole budget; a detection would refute
    the verdict). An Isolated/Serialized claim corrupts the ordered
    operands (the complement of {!Sg_analysis.Race.free_data}, cycling)
    and must stay silent-free. *)
