(** The COMPOSITE simulation: components, synchronous invocations with
    thread migration, blocking, micro-reboot and the discrete-event
    dispatcher.

    Threads are OCaml fibers (effect handlers): workload code is written
    in direct style and performs component invocations as ordinary calls;
    blocking suspends the fiber's continuation inside the server, exactly
    mirroring COMPOSITE's migrating-thread IPC (paper §II-B). A single
    virtual CPU runs the highest-priority runnable thread.

    The fault path: a detected fail-stop fault raises {!Comp.Crash} from
    inside the server; the component is marked failed; the exception
    unwinds (popping invocation frames) to the client-side stub, which
    asks the booter to micro-reboot the server and then replays per its
    recovery model. Threads that were blocked inside the rebooted
    component are *diverted*: their continuations are resumed with
    {!Comp.Diverted} so they unwind back to their own client stubs
    (paper §II-C, Fig 1(b)). *)

type t

type spec = {
  sc_name : string;
  sc_image_kb : int;  (** pristine image size; micro-reboot memcpy cost *)
  sc_init : t -> Comp.cid -> unit;
      (** reinitialize internal state to the pristine image at a
          micro-reboot; a spec is built with its state pristine *)
  sc_boot_init : t -> Comp.cid -> unit;
      (** post-reboot constructor (the paper's
          [__attribute__((constructor))] analogue, §III-C T0); eager
          recovery such as wakeup of previously blocked threads runs
          here *)
  sc_dispatch : t -> Comp.cid -> string -> Comp.value list -> Comp.value Comp.outcome;
  sc_reflect : t -> Comp.cid -> string -> Comp.value list -> Comp.value Comp.outcome;
      (** introspection interface used by recovery (paper §II-C) *)
  sc_usage : string -> Sg_kernel.Usage.t option;
      (** register-usage schedule per interface function, for SWIFI *)
}

type fatal =
  | Fatal_segfault of Comp.cid
  | Fatal_hang of Comp.cid
  | Fatal_propagated of Comp.cid
  | Fatal_uncaught of string

type run_result = Completed | Fatal of fatal | Deadlock

(** {1 Construction} *)

(** A simulator with the calibrated {!Sg_kernel.Cost.default} model.
    Its built-in observability sink starts with retention [Recovery];
    set [All] with {!Sg_obs.Sink.set_retention} on {!obs} to retain the
    full event stream for {!Sg_obs.Check.run} or JSON-lines export.

    The dispatcher keeps the ready and sleeper sets incrementally in
    {!Runq} heaps and runs threads in [(prio, last_run, tid)] order. The
    golden-trace tests pin its dispatch sequence and crash-storm event
    streams to digests recorded from the earlier O(threads) list-scan
    reference dispatcher, which made the same decisions. *)
val create : ?seed:int -> unit -> t
val kernel : t -> Sg_kernel.Kernel.t
val cost : t -> Sg_kernel.Cost.t
val rng : t -> Sg_util.Rng.t
val now : t -> int
val charge : t -> int -> unit

val register : t -> spec -> Comp.cid
(** Register a component; its state is the spec's own, so [sc_init]
    first runs at its first micro-reboot. *)

val grant : t -> client:Comp.cid -> server:Comp.cid -> unit

(** {1 Component status} *)

val epoch : t -> Comp.cid -> int
(** Incremented on every micro-reboot; stubs compare epochs to detect
    that a server has been rebooted since a descriptor was tracked. *)

val is_failed : t -> Comp.cid -> bool
val mark_failed : t -> Comp.cid -> detector:string -> unit

val microreboot : t -> Comp.cid -> unit
(** The booter path (paper §III-D steps 3-4): charge the image memcpy,
    reset state via [sc_init], bump the epoch, flag every thread with the
    component on its invocation stack for diversion, then run
    [sc_boot_init]. *)

val reboots : t -> int
(** Total micro-reboots performed (campaign statistics). *)

(** {1 Invocation} *)

val invoke : t -> server:Comp.cid -> string -> Comp.value list -> Comp.value Comp.outcome
(** Raw synchronous component invocation on the current thread: checks the
    capability, charges the kernel IPC path, migrates the thread into the
    server, runs the SWIFI hook and the server dispatch. Raises
    {!Comp.Crash} if the server is failed or fails during dispatch. *)

val reflect : t -> server:Comp.cid -> string -> Comp.value list -> Comp.value Comp.outcome
(** Reflection query; charged separately and never fault-injected (the
    recovery path itself is trusted, as in C³). *)

val invocations : t -> int

val register_upcall :
  t -> client:Comp.cid -> string -> (t -> Comp.value list -> Comp.value Comp.outcome) -> unit

val upcall : t -> client:Comp.cid -> string -> Comp.value list -> Comp.value Comp.outcome
(** Upcall into a client component (recovery mechanism U0). *)

(** {1 Threads} *)

val spawn : t -> ?prio:int -> name:string -> home:Comp.cid -> (t -> unit) -> Sg_kernel.Ktcb.tid
val current_tcb : t -> Sg_kernel.Ktcb.tcb
val current_tid : t -> Sg_kernel.Ktcb.tid
val self_cid : t -> Comp.cid
(** Innermost component of the current thread. *)

val client_cid : t -> Comp.cid
(** The component that invoked the current one (second stack frame);
    equals [self_cid] at workload top level. *)

val block : t -> unit
(** Block the current thread inside the component it is executing in.
    Returns when woken; raises {!Comp.Diverted} if the component was
    micro-rebooted while blocked. *)

val sleep_until : t -> int -> unit
(** Timed block until an absolute virtual time. *)

val wakeup : t -> Sg_kernel.Ktcb.tid -> bool
(** Make a blocked or sleeping thread runnable; [false] if it was not
    blocked. Triggers a preemption check at the next safe point. *)

val yield : t -> unit

(** {1 Fault-injection hook} *)

val set_on_dispatch : t -> (t -> Comp.cid -> string -> unit) option -> unit
(** Hook run at every server dispatch, used by the SWIFI injector. May
    raise {!Comp.Crash} (after marking the component failed),
    {!Comp.Sys_segfault}, {!Comp.Sys_hang} or {!Comp.Sys_propagated}. *)

val usage_of : t -> Comp.cid -> string -> Sg_kernel.Usage.t option

(** {1 Running} *)

val run : t -> run_result
(** Drive the DES until all threads finish ([Completed]), an unrecoverable
    fault occurs ([Fatal]), or every live thread is blocked with no timed
    wakeup pending ([Deadlock]). *)

val fatal : t -> fatal option
val fatal_to_string : fatal -> string
val pp_run_result : Format.formatter -> run_result -> unit

(** {1 Structured observability}

    Every simulator emits structured {!Sg_obs.Event.t} values — spans
    for each invocation, crash/reboot/divert/upcall/reflect recovery
    events — into a built-in sink, with an attached metrics fold. *)

val obs : t -> Sg_obs.Sink.t
val metrics : t -> Sg_obs.Metrics.t

val emit : t -> Sg_obs.Event.kind -> unit
(** Emit an event stamped with the current virtual time and thread
    (tid [-1] outside the dispatcher). Used by stubs, the injector and
    workloads to contribute to the same stream. *)
