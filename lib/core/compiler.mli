(** The SuperGlue compiler pipeline (paper §IV-B):

    preprocess (comment stripping) → tokenize → parse → semantic
    analysis into the descriptor-resource/state-machine IR → recovery
    plans (shortest path to each state) → back ends: the predicate-
    guarded template network ({!Codegen}, run twice for client and
    server stubs) and the in-process interpreted backend ({!Interp}). *)

type artifact = {
  a_name : string;
  a_source : string;  (** the specification text *)
  a_ir : Ir.t;
  a_machine : Machine.t;
  a_stubplan : Stubplan.t;
      (** what the interpreted stubs ({!Interp}) ask per invocation,
          resolved once from [a_ir] and [a_machine] *)
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

val builtin_names : string list
(** The six system interfaces embedded at build time:
    {!Sg_components.Sysbuild.names}. *)

val builtin : string -> artifact
(** Compiled embedded specification; all six are compiled at module
    initialisation, so this is a read-only lookup, safe from any
    domain. Raises [Invalid_argument] for an unknown name. *)

val builtin_source : string -> string

val emit_header : Ir.t -> string
(** The paper's first pipeline stage in reverse: render the plain C
    header that results from nil-defining every SuperGlue keyword. *)

val mechanisms : artifact -> string list
(** Recovery mechanisms selected for this interface (R0/T0/T1/...). *)
