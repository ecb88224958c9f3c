(** The six benchmark workloads of the paper's evaluation (§V-B), with
    machine-checked postconditions.

    Each setup spawns the workload's threads into the system's simulator
    and returns a postcondition check to be evaluated after {!Sg_os.Sim.run}
    returns: the check yields the list of violated invariants (empty for
    a correct execution). The fault-injection campaign defines a
    *successful recovery* as "continued execution that abides by the
    target component and workload specifications post-recovery" — i.e.
    the run completes and the check comes back empty.

    - [sched]: two threads ping-pong, blocking and waking each other with
      [sched_blk]/[sched_wakeup];
    - [mm]: a thread is granted pages, aliases them into a different
      component, and revokes them (removing all aliases);
    - [fs]: a file is opened, a byte written, read back and closed;
    - [lock]: one thread holds a lock another contends; release hands it
      over — with a mutual-exclusion monitor on the critical section;
    - [evt]: a thread blocks waiting for an event that a thread in a
      *different component* triggers (the event's parent was created by
      yet another component, exercising the cross-component dependency);
    - [timer]: a thread wakes up then blocks for a period, repeatedly. *)

val setup :
  ?knob:int -> Sysbuild.system -> iface:string -> iters:int -> unit -> string list
(** [setup sys ~iface ~iters] spawns the workload for the named service
    and returns its postcondition check. Without [knob] each workload
    runs the paper's fixed shape, the original §V-B sequence: one alias
    per page, path ["bench.dat"], two lock contenders, one trigger per
    wait, a 200 µs timer period. [~knob:k] is the one shape axis of a
    generated (DST) variant, read by each service its own way: [k]
    aliases per page (mm), path ["f<k>"] (fs), [1 + k] lock contenders,
    [k] triggers per wait (evt), a [50_000 * k] ns timer period; sched
    ignores it. Raises [Invalid_argument] for an unknown interface or
    [k < 1]. *)

val run_storm :
  Sysbuild.system ->
  iface:string ->
  iters:int ->
  every:int option ->
  detector:string ->
  (Sg_obs.Event.t list, string) result
(** [run_storm sys ~iface ~iters ~every:(Some k) ~detector] sets the
    freshly built [sys]'s sink to retention [All], sets up the [iface]
    workload, fail-stops the [iface] service (crash detector [detector])
    on every [k]-th dispatch into it, runs the simulation and checks the
    postconditions. It returns the whole event stream, or one line
    saying how the run ended (fatal, deadlock) or which postconditions
    failed. [~every:None] runs the workload without faults. *)

val all_ifaces : string list
(** {!Sysbuild.names}: the six services, in the paper's order. *)
