(** The code-generating back end: runs the template network twice (once
    with the client-stub inputs, once with the server's, paper §IV-B)
    and emits a self-contained OCaml stub module for an interface.

    The emitted module exposes

    {[
      val client_config : storage:Sg_storage.Storage.t -> unit -> Sg_c3.Cstub.config
      val server_config : ?wakeup_dep:Sg_os.Port.t option ref * string -> unit -> Sg_c3.Serverstub.config
    ]}

    and is compiled into the [sg_genstubs] library by a dune rule, so
    the generated code is exercised by the test suite and the benchmark
    harness exactly like the hand-written C³ stubs. (The paper's
    compiler emits C linked into COMPOSITE components; emitting OCaml is
    the only substitution — see DESIGN.md §5.) *)

val emit : Compiler.artifact -> string
(** The complete generated module source (client + server sections). *)

val emit_side : Compiler.artifact -> Templates.side -> string
(** One back-end run: only the fragments of the given side. *)

val included_templates : Compiler.artifact -> (string * Templates.side) list
(** Names of the template-predicate pairs included for this interface —
    the compiler's per-interface diagnostic. *)

val loc : string -> int
(** Non-blank lines of code of a source text (the Fig 6(c) metric). *)
