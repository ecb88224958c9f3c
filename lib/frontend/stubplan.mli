(** The interpreted stubs' executable plan: every IR query the stubs
    ask per invocation, answered once per compiled artifact.

    The interpreted stubs ([Superglue.Interp]) used to answer them on
    every call: a [List.find_opt] over the functions, a scan of the
    σ-edges and a fresh ["after:<fn>"] string. {!build} resolves each
    declared function into a {!fn} record when {!Compile.compile} builds
    the artifact, so a tracked call does one lookup by name and reads
    fields. *)

type fn = {
  fn_params : Ast.param list;  (** as declared, for the recovery walk *)
  fn_desc : int option;  (** {!Ir.desc_arg_index} *)
  fn_parent : int option;  (** {!Ir.parent_arg_index} *)
  fn_ns : int option;  (** {!Ir.ns_arg_index} *)
  fn_create : bool;  (** {!Ir.is_create} *)
  fn_terminal : bool;  (** {!Ir.is_terminal} *)
  fn_virtual_create : bool;
      (** a creation of a local descriptor whose id the server assigns:
          the client stub hands out a virtual id instead *)
  fn_after : Machine.state;  (** [Machine.after fn], built once *)
  fn_meta : (int * string) list;
      (** argument index and name of every [desc_data],
          [desc_data_parent] and [desc_ns] parameter, in order: what a
          call records in the descriptor's metadata *)
  fn_retval : Ast.retval_annot option;
  fn_from : Machine.state list;
      (** {!Machine.sources}: [s] is here iff
          [Machine.sigma m s fn <> None] *)
}

type t = { fns : (string * fn) list }
(** Every declared function's plan, in declaration order. Only {!build}
    makes one; like {!Machine.t} the representation is public and
    immutable so that a plan can be linked as static data. *)

val build : Ir.t -> Machine.t -> t
(** O(functions × parameters). The first declaration of a name wins, as
    in {!Ir.func}. *)

val find : t -> string -> fn option
(** [None] for a name the interface does not declare. *)

val finder : t -> string -> fn option
(** [finder t] is {!find} [t] behind a one-entry cache keyed by the
    name's physical address. One stub call asks up to four questions
    about the same name string; the cache answers all but the first.
    The cache is mutable: give each stub its own [finder]. *)

val find_exn : t -> string -> fn
(** Raises [Invalid_argument] for an undeclared name. *)

val counter : string -> int Atomic.t
(** The process-wide invalid-transition counter of an interface name:
    every artifact compiled under one name shares it. Takes a lock and,
    once the name has its counter, allocates nothing; bumping the
    counter takes no lock. *)
