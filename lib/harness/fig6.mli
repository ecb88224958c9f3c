(** Drivers regenerating Fig 6 of the paper.

    (a) per-operation infrastructure overhead of descriptor state
    tracking, C³ vs SuperGlue, per system component (µs, mean ± stdev
    over seeds);

    (b) per-descriptor recovery overhead: the virtual time to bring one
    descriptor from the fault state back to its expected state (µs,
    mean ± stdev over the interface's descriptors and seeds);

    (c) lines of code: the declarative IDL specification vs the recovery
    code the SuperGlue compiler generates from it vs the hand-written C³
    stub for the same interface. *)

type overhead_row = {
  o_iface : string;
  o_base_us : float;  (** base per-iteration execution time *)
  o_c3 : Sg_util.Stats.summary;  (** added µs per workload iteration *)
  o_sg : Sg_util.Stats.summary;
}

val infrastructure : ?reps:int -> ?iters:int -> unit -> overhead_row list

type recovery_row = {
  v_iface : string;
  v_c3 : Sg_util.Stats.summary;  (** µs per recovered descriptor *)
  v_sg : Sg_util.Stats.summary;
}

val recovery : ?reps:int -> unit -> recovery_row list

type loc_row = {
  l_iface : string;
  l_idl : int;  (** LOC of the .sgidl specification *)
  l_generated : int;  (** LOC the SuperGlue compiler emits *)
  l_c3 : int;  (** LOC of the hand-written C³ stub module *)
}

val loc : unit -> loc_row list
