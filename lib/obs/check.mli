(** Trace-invariant checker.

    Validates a complete event stream (a sink run with retention [All])
    against the paper's recovery-ordering rules:

    - [monotone-time]: sequence numbers strictly increase and virtual
      timestamps never go backwards.
    - [crash-reboot-alternation]: per component, detected crashes and
      micro-reboots strictly alternate — a reboot requires a preceding
      crash, and a second crash requires a reboot in between.
    - [no-success-while-failed]: no invocation of a component completes
      successfully between its detected crash and its micro-reboot
      (i.e. every crash is followed by exactly one reboot before any
      successful invocation).
    - [span-nesting]: invocation spans on each thread are properly
      nested (LIFO), begin once and end once, on the thread that began
      them.
    - [divert-unwind]: after a micro-reboot diverts a thread, that
      thread's open spans into the rebooted component unwind (end
      faulted) before it begins any new invocation — replay happens
      only after the unwind (paper §II-C, Fig 1(b)).
    - [walk-discipline]: descriptor walks nest properly per thread;
      eager (T0) walks happen only inside a recover-all episode, demand
      (T1) walks only outside one; with [~mode:`Ondemand] any eager
      walk or recover-all episode is a violation (T1 performs no walk
      before first access).
    - [inject-accounting]: every injected-and-activated fault whose
      outcome is not "undetected" is followed on its thread by the
      matching detection record — a [Crash] of the target for fail-stop
      (and C'MON-detected hangs), a faulted span end for
      segfault/propagated/hang.
    - [end-of-stream] (only with [~completed:true]): no spans, walks,
      recover episodes, pending diverts or unresolved injections remain
      open. *)

type violation = { at_seq : int; rule : string; msg : string }

val pp_violation : Format.formatter -> violation -> unit

(** {2 Online checking}

    The checker is one forward fold, so it can judge a run while it
    runs: subscribe {!feed} to the sink, then {!finish} once the run
    returns. *)

type t

val create : ?mode:[ `Ondemand | `Eager ] -> unit -> t
(** [mode] additionally enforces the T0/T1 rules. *)

val feed : t -> Event.t -> unit
(** Fold one event, in stream order. *)

val finish : t -> completed:bool -> violation list
(** Violations in stream order; [[]] means the stream fed so far
    satisfies every invariant. [completed] additionally requires it to
    end quiescent. *)

val run :
  ?mode:[ `Ondemand | `Eager ] -> ?completed:bool -> Event.t list ->
  violation list
(** {!finish} of a fresh checker fed the whole list; [completed]
    defaults to false. *)
