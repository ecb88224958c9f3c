(** The SuperGlue compiler: the front end ({!Sg_frontend.Compile}) and
    the six builtin interfaces.

    preprocess (comment stripping) → tokenize → parse → semantic
    analysis into the descriptor-resource/state-machine IR → recovery
    plans (shortest path to each state) → back ends: the predicate-
    guarded template network ({!Codegen}, run twice for client and
    server stubs) and the in-process interpreted backend ({!Interp}). *)

include module type of struct
  include Sg_frontend.Compile
end

val builtin_names : string list
(** The six system interfaces embedded at build time:
    {!Sg_components.Sysbuild.names}. *)

val builtin : string -> artifact
(** A builtin interface's artifact. All six are compiled at build time
    by [tools/genbuiltins] (the same {!compile}, run on
    [idl/<name>.sgidl]) and linked as static data, so this runs no
    compiler stage: it is a read-only lookup, safe from any domain.
    Raises [Invalid_argument] for an unknown name. *)

val builtin_source : string -> string

val emit_header : Ir.t -> string
(** The paper's first pipeline stage in reverse: render the plain C
    header that results from nil-defining every SuperGlue keyword. *)

val mechanisms : artifact -> string list
(** Recovery mechanisms selected for this interface (R0/T0/T1/...). *)
