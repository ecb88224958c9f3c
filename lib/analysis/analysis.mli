(** Recovery-soundness static analysis over compiled interface
    specifications.

    The compiler accepts any specification that is syntactically and
    semantically well-formed; this pass checks what the template network
    then silently assumes (paper §III-B/§IV-B): every tracked state is
    reachable and can reach a terminal, blocked threads have a wakeup
    path, and every recovery plan is replayable from the data the stubs
    actually capture. Findings are {!Superglue.Diag.t} values with
    stable [SGxxx] rule codes — DESIGN.md maps each code to the paper
    mechanism it guards. *)

module Diag = Superglue.Diag

val rules : (string * Diag.severity * string) list
(** [(code, default severity, one-line description)] for every rule the
    analyzer and compiler emit, including the compile-stage codes
    [SG900]–[SG902]. *)

val rule_doc : string -> string option

val analyze : Superglue.Compiler.artifact -> Diag.t list
(** All single-interface rules ([SG001]–[SG011], [SG014]). Total: never
    raises for any artifact the compiler accepts. Does not include the
    compilation warnings already in
    {!Superglue.Compiler.artifact.a_warnings}. *)

val analyze_system :
  ?wakeup_deps:(string * string * string) list ->
  ?boot_order:string list ->
  Superglue.Compiler.artifact list ->
  Diag.t list
(** The cross-interface pass, delegated to {!Sysgraph.analyze}:
    per-edge checks ([SG012] — each wakeup dependency [(dependent,
    target, wakeup_fn)] must name a declared wakeup function of an
    earlier-booting target; edges whose endpoints are not in the
    artifact list are skipped) plus the whole-graph rules — dependency
    cycles ([SG013]) and boot-order-inconsistent transitive chains
    ([SG015]), which are wiring properties checked regardless of which
    artifacts are present. Defaults come from
    {!Sg_components.Sysbuild}. *)

val lint :
  ?wakeup_deps:(string * string * string) list ->
  ?boot_order:string list ->
  Superglue.Compiler.artifact list ->
  Diag.t list
(** Compilation warnings + {!analyze} per artifact + {!analyze_system},
    sorted for rendering. *)

val diag_to_json : Diag.t -> Sg_util.Json.t
val report_to_json : Diag.t list -> Sg_util.Json.t
(** The [sgc lint --json] schema:
    [{"version":2,"schema":"sgc-lint","diagnostics":[{"code","severity",
    "file"?,"line"?,"col"?,"message"}...],"errors":N,"warnings":N,
    "infos":N}]. Span fields are omitted for system-level findings.
    Version history: v1 had no ["schema"] field. *)

val diag_of_json : Sg_util.Json.t -> Diag.t option
val report_of_json : Sg_util.Json.t -> Diag.t list option
(** Inverse of {!report_to_json}, for round-trip checks and tooling. *)
