(** The SuperGlue compiler pipeline (paper §IV-B):

    preprocess (comment stripping) → tokenize → parse → semantic
    analysis into the descriptor-resource/state-machine IR → recovery
    plans (shortest path to each state). The back ends (the template
    network and the interpreted stubs) live in the [superglue] library,
    which re-exports this module as [Superglue.Compiler]. *)

type artifact = {
  a_name : string;
  a_source : string;  (** the specification text *)
  a_ir : Ir.t;
  a_machine : Machine.t;
  a_stubplan : Stubplan.t;
      (** what the interpreted stubs ([Superglue.Interp]) ask per
          invocation, resolved once from [a_ir] and [a_machine] *)
  a_warnings : Diag.t list;
      (** non-fatal diagnostics collected during compilation (today:
          the [SG020] state-class-collapsing infos) *)
}

exception Compile_error of Diag.t list
(** Lexer ([SG900]), parser ([SG901]) and semantic ([SG902]) errors,
    each with a [file:line:col] span. *)

val error_to_string : Diag.t list -> string
(** Render a {!Compile_error} payload as a single ["; "]-joined line. *)

val compile : name:string -> string -> artifact
val compile_file : string -> artifact
(** The interface name is the file's basename. *)

val compilations : unit -> int
(** How many times {!compile} has run in this process, on any domain. *)
