(** Hash tables keyed by [int], for the per-invocation paths.

    The generic [Hashtbl] pays a C call to the polymorphic hash and a
    polymorphic comparison on every lookup, and a [Hashtbl.Make]
    instance still pays closure calls for the hash and the equality.
    Here both are a few integer instructions inside the lookup loop.

    The iteration order of {!fold} differs from a generic [Hashtbl]'s
    over the same keys, so a table whose iteration order reaches an
    output must sort what it folds, or not switch to this one
    (DESIGN.md §3.5). *)

type 'a t

val create : int -> 'a t
(** [create n]: an empty table sized for about [n] bindings; it grows. *)

val length : 'a t -> int
val find_opt : 'a t -> int -> 'a option

val find_or : 'a t -> int -> 'a -> 'a
(** [find_or t key default]: the key's binding, or [default]; unlike
    {!find_opt} it allocates nothing. *)

val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing its binding if it has one. *)

val add : int t -> int -> int -> unit
(** [add t key n]: add [n] to the key's count, binding it to [n] if it
    has none; one probe, and no allocation once the key is bound. *)

val remove : 'a t -> int -> unit
(** Drop the key's binding, if any. *)

val clear : 'a t -> unit
(** Drop every binding; the table keeps its size. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** In an unspecified order that depends only on the sequence of
    operations. *)

val longest_chain : 'a t -> int
(** The most bindings one bucket holds: how well {!find_opt} spreads
    the table's keys (tests bound it for key patterns the system uses). *)
