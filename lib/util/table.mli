(** Plain-text table rendering for benchmark and campaign reports.

    Used by the harness to print rows in the same layout as the paper's
    Table II and Figure 6/7 data. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays out a boxed ASCII table, the first column
    left-aligned and the rest right-aligned. All rows must have the same
    arity as [header]. *)

val print : header:string list -> string list list -> unit
