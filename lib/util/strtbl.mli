(** Hash tables keyed by [string], compared with [String.equal] rather
    than the polymorphic compare. Iteration order is not a generic
    [Hashtbl]'s (see {!Inttbl}). *)

include Hashtbl.S with type key = string
