(** Descriptor state machines and recovery-path computation (paper
    §III-B and §IV-B: "with this representation, the shortest path
    through the state machine is found to each state").

    States are implicit, named by the last interface function applied:
    ["s0"] and ["after:<fn>"]. Recovery must bring a descriptor from the
    post-reboot initial state back to its tracked state by *replaying*
    interface functions, which is only possible for functions whose
    arguments are reconstructible from tracked data. States separated
    only by non-replayable effects — transient blocks, whose
    synchronization is re-established by the diverted thread's own redo,
    and calls with untracked plain arguments, whose durable effects are
    resource data restored through the storage component (G1) — are
    *recovery-equivalent* and collapsed into classes. A recovery plan is
    then the shortest replayable path from the initial class to the
    target class, followed by the data-restoring calls (the paper's
    "open and lseek") that reset tracked descriptor data. *)

type state = string

val s0 : state
val after : string -> state
(** ["after:<fn>"]. *)

type plan = {
  pl_path : string list;
      (** interface functions to replay, in order (R0 walk) *)
  pl_restore : string list;
      (** data-restoring functions appended to the walk *)
}

type edge = { e_from : state; e_fn : string; e_to : state }

type t = {
  m_ir : Ir.t;
  m_states : state list;  (** {!states} *)
  m_edges : edge list;  (** the σ-edges: creations from [s0], then transitions *)
  m_class : (state * state) list;
      (** each state whose recovery class is represented by another
          state, with that representative; any other state is its own *)
  m_sources : (string * state list) list;  (** {!sources}, by function *)
  m_plans : (state * plan) list;  (** {!plan} of every state in [m_states] *)
}
(** Only {!build} makes one. The representation is public, and made of
    immutable lists, so that a machine can be written out as an OCaml
    literal and linked as static data (the builtin interfaces are, by
    [tools/genbuiltins]). *)

val build : Ir.t -> t

val sigma : t -> state -> string -> state option
(** The transition function σ: next state after calling the function in
    the given state; [None] if the transition is invalid (used for the
    fault-detection check the paper motivates in §III-B). *)

val states : t -> state list
(** All states, [s0] first. *)

val sources : t -> string -> state list
(** The states with a σ-edge for the function, without duplicates, in
    edge order: [s] is here iff [sigma t s fn <> None]. Computed in one
    pass over the edges by {!build}. *)

val same_class : t -> state -> state -> bool
(** Whether two states are recovery-equivalent. *)

val plan : t -> state -> plan
(** The precomputed recovery plan for a tracked state. Unknown states
    (never produced by tracking) fall back to the shortest creation. *)

val to_dot : t -> string
(** Render the state machine as Graphviz DOT: solid edges are interface
    transitions, state labels carry their recovery plans — the textual
    equivalent of the paper's Fig 2 bottom diagrams. *)
