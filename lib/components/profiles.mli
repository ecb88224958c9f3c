(** Register-usage profiles of the six system services.

    Each component's interface operations execute a characteristic mix of
    register accesses — the scheduler's short queue operations churn the
    stack registers, the file system reads long runs of data words, the
    memory manager walks pointer-dense mapping trees. These mixes, not
    per-row tuning of outcome counts, determine each service's fault
    profile: the SWIFI verdict for a flip is always computed by
    {!Sg_kernel.Usage.classify} from the next use of the flipped
    register.

    A profile is expressed as one cyclic pattern of uses per register,
    repeated across the operation's execution window
    ({!Sg_kernel.Usage.cyclic}). *)

val sched : string -> Sg_kernel.Usage.t option
(** Schedule for a scheduler interface function (short, stack-heavy
    queue manipulation; widest stack red zone of the six services). *)

val mm : string -> Sg_kernel.Usage.t option
(** Memory manager: pointer-dense tree walks, some dead temporaries, a
    revocation loop, and one address computation whose derived value is
    returned before validation. *)

val fs : string -> Sg_kernel.Usage.t option
(** RamFS: long data moves with frequently overwritten scratch
    registers; small stack footprint. *)

val lock : string -> Sg_kernel.Usage.t option
(** Lock: very short operations; the owner field is returned to the
    caller on contention paths. *)

val event : string -> Sg_kernel.Usage.t option
(** Event manager: hash lookups with scratch churn; trigger results
    escape to the caller. *)

val timer : string -> Sg_kernel.Usage.t option
(** Timer manager: wheel arithmetic, moderate stack use. *)
