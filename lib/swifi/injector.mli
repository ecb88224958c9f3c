(** The SWIFI injector (paper §V-A).

    Mimics transient faults by flipping a random bit in a randomly chosen
    register (six general-purpose plus ESP and EBP) of a thread executing
    inside the target system component, at a fixed virtual-time period.
    The flip is applied to the thread's simulated register file and its
    consequence is classified by the operation's register-usage schedule
    ({!Sg_kernel.Usage.classify}); detected fail-stop faults crash the
    component (vectoring to the booter via {!Sg_os.Comp.Crash}),
    unrecoverable outcomes abort the whole system run.

    Each flip emits one {!Sg_obs.Event.Inject} event, and that event is
    the injection's only record: the simulator's {!Sg_obs.Metrics} fold
    tallies the outcomes, and a sink that retains the event keeps the
    per-injection log. *)

type outcome =
  | O_undetected
  | O_failstop
  | O_segfault
  | O_propagated
  | O_hang

type t

val create :
  ?cmon_period_ns:int ->
  target:Sg_os.Comp.cid ->
  period_ns:int ->
  max_injections:int ->
  rng:Sg_util.Rng.t ->
  unit ->
  t
(** [cmon_period_ns], when given, models the C'MON latent-fault monitor
    the paper cites for its "Not recovered (other reason)" faults: an
    infinite loop induced by a flipped loop bound is caught when the
    operation overruns its execution-time budget — after the overrun
    plus at most one monitor period, the fault is converted into an
    ordinary detected fail-stop (detector "cmon-latent") and recovered
    like any other, instead of hanging the system. *)

val install : Sg_os.Sim.t -> t -> unit
(** Arm the injector as the simulator's dispatch hook. *)

val apply_flip :
  Sg_os.Sim.t ->
  cid:Sg_os.Comp.cid ->
  fn:string ->
  reg:Sg_kernel.Reg.t ->
  bit:int ->
  at:int ->
  ?cmon:(unit -> int) ->
  unit ->
  unit
(** Apply one *chosen* register bit-flip at the current dispatch — the
    plan-driven entry point ({!Sg_dst}). Flips [bit] of [reg] in the
    executing thread's register file, classifies the consequence against
    the operation's usage schedule at offset [at], emits the
    {!Sg_obs.Event.Inject} event and then raises the fault exception the
    classification demands (nothing for [O_undetected]). [cmon], when given, models the latent-fault monitor
    exactly as {!create}'s [cmon_period_ns]: a hang is converted to a
    detected fail-stop after the budget overrun plus the slack the thunk
    returns. No-op when the operation has no usage schedule. *)

val injected : t -> int
(** Injections made so far; the injector stops at [max_injections]. *)

val outcome_to_string : outcome -> string
(** The outcome's name in {!Sg_obs.Event.Inject} events. *)
