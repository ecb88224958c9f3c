(** The SuperGlue stub set: compiler-produced stubs for the six system
    interfaces, pluggable into {!Sg_components.Sysbuild}.

    This is the paper's deliverable in runnable form — where the C³
    configuration wires hand-written stub modules, this wires the
    configurations the SuperGlue compiler derives from the declarative
    .sgidl specifications, charged at the SuperGlue tracking cost. *)

val make :
  name:string ->
  ?mode:[ `Ondemand | `Eager ] ->
  (string -> Compiler.artifact) ->
  Sg_components.Sysbuild.stubset
(** [make ~name ?mode artifact] is the stub set named [name] that
    interprets [artifact iface] for each interface [iface] (looked up
    when a port to [iface] is first resolved), with
    client-side recovery [mode] (default [`Ondemand], see
    {!Interp.client_config}). Every SuperGlue stub set is one of these:
    {!mode}, {!mode_eager}, and the DST mutant system, which swaps one
    interface's artifact for a mutated one. *)

val mode : Sg_components.Sysbuild.mode
(** [Stubbed (make ~name:"superglue" artifact)] — pass to
    {!Sg_components.Sysbuild.build}. *)

val mode_eager : Sg_components.Sysbuild.mode
(** Ablation variant ["superglue-eager"]: on a fault, every tracked
    descriptor of the client interface is recovered immediately at the
    faulting thread's priority, instead of lazily at each accessor's own
    priority (T1). The paper's timing discussion (§III-C, citing the C³
    schedulability analysis) argues on-demand recovery properly
    prioritizes recovery work; the [ablation] benchmark quantifies the
    interference difference. *)

val artifact : string -> Compiler.artifact
(** The compiled artifact behind an interface's stubs. *)
