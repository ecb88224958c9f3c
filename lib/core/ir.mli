(** Intermediate representation: the semantic model extracted from a
    parsed specification (paper §IV-B — "the front end extracts the
    specifications from the abstract syntax tree into an intermediate
    representation that encodes the resource-descriptor and state
    machine models"). *)

type func = {
  f_name : string;
  f_ret : string option;
  f_retval : Ast.retval_annot option;
  f_params : Ast.param list;
  f_pos : Ast.pos;  (** declaration site, for diagnostics *)
}

type t = {
  ir_name : string;  (** interface name (and storage space) *)
  ir_model : Model.t;
  ir_model_pos : Ast.pos;  (** the service_global_info block's position *)
  ir_funcs : func list;
  ir_creates : string list;  (** I^create *)
  ir_terminals : string list;  (** I^terminate *)
  ir_blocks : string list;  (** I^block, transient synchronization *)
  ir_block_holds : string list;  (** I^block, state-acquiring *)
  ir_wakeups : string list;  (** I^wakeup *)
  ir_transitions : (string * string) list;
  ir_sm_decls : (Ast.sm_decl * Ast.pos) list;
      (** every state-machine declaration with its source position, in
          declaration order — the static analyzer reports duplicate or
          conflicting declarations against these spans *)
}

exception Semantic_error of Diag.t list

val span : name:string -> Ast.pos -> Diag.span
(** Build a diagnostic span for interface [name] at [pos]. *)

val of_ast : name:string -> Ast.t -> t
(** Raises {!Semantic_error} with every problem found (rule [SG902]):
    undeclared functions in state-machine declarations, a creation
    function without an id source, a blocking interface with
    [desc_block = false], etc. *)

val func : t -> string -> func option
val func_exn : t -> string -> func

val fn_span : t -> string -> Diag.span option
(** The declaration span of a function, [None] if it is not declared. *)

val fn_error : t -> string -> string -> string -> Diag.t
(** [fn_error t fn code msg]: an error-severity finding [code] at [fn]'s
    declaration. *)

val desc_arg_index : t -> string -> int option
(** Position of the [desc(...)] parameter of a function. *)

val ns_arg_index : func -> int option
val parent_arg_index : func -> int option

val is_create : t -> string -> bool
val is_terminal : t -> string -> bool
val is_transient_block : t -> string -> bool

val is_blocking : t -> string -> bool
(** In I^block: a transient block or a state-acquiring one. *)

val is_wakeup : t -> string -> bool

val captured : t -> string -> string list
(** Metadata datums the stubs capture when tracking a call: a creation
    captures its desc_data, desc_data_parent and desc_ns parameters, a
    terminal nothing, any other call its desc_data parameters and its
    annotated return value. Feeds the SG007 dataflow and the taint and
    race passes. *)

val replayed : t -> string -> string list
(** Datums a recovery walk reads back from the stub store to rebuild a
    call's arguments: its desc_data and desc_ns parameters. *)

val is_replayable : t -> func -> bool
(** A function is replayable during a recovery walk iff every parameter
    can be reconstructed from tracked state (descriptor, parent,
    namespace or [desc_data] parameters — no plain arguments) and it is
    not a transient block. *)

val marshal_is_string : string -> bool
(** Whether a declared C type marshals as a string (pointer types). *)

val warnings : t -> Diag.t list
(** Non-fatal diagnostics (rule [SG020], severity info): states whose
    recovery walk relies on class collapsing because their function is
    not replayable. *)
