(** In-memory span ledger for the traced benchmark run.

    Spans are recorded only around calls the benchmark itself makes into
    the program's public functions; the program is not instrumented.
    Each span has a name (the layer), start and end on the host
    monotonic clock, the enclosing span, the op it belongs to and a
    source: ["own"] for the workload's own ops, ["probe:<workload>"] for
    ops of another workload run to probe layers the workload does not
    call, ["probe"] for stand-alone layer probes. Counters are kept per
    source too. Nothing is written while the run measures; {!dump}
    writes the spans out at exit. With the ledger off, every function
    here is a plain call. *)

val now_ns : unit -> int
(** Host monotonic clock (CLOCK_MONOTONIC), in nanoseconds. *)

val set_on : bool -> unit
val is_on : unit -> bool

val op : ?source:string -> int -> (unit -> 'a) -> 'a
(** [op k f] runs [f] as the root span ["op"] of op [k]; the source
    (default ["own"]) stays current until the next [op]. *)

val span : string -> (unit -> 'a) -> 'a
(** A child span of the innermost open span. *)

val reprobe : parent:string -> string -> (unit -> 'a) -> 'a
(** A root span, marked reprobe, that re-invokes a layer on the current
    op's own inputs after the op ended, to estimate what an opaque call
    spends inside that layer. It belongs to the current op and source,
    is logically attached to the latest span named [parent], and is
    never part of any op's time. *)

val probe : string -> (unit -> 'a) -> 'a
(** A root span of source ["probe"], outside every op. Counters added
    inside it go to that source. *)

val count : string -> int -> unit
(** Add to a named counter of the current source. *)

val counter : source:string -> string -> int

type layer = {
  l_calls : int;
  l_total_ns : int;  (** summed span durations *)
  l_self_ns : int;  (** summed durations minus the time child spans cover *)
}

val layers : source:string -> (string * layer) list
(** Per-name aggregate over one source's spans, largest self time
    first. The root ["op"] spans appear under the name ["op"]; their
    self time is the time no layer span covers. *)

val dump : string -> unit
(** Write every recorded span as one JSON object per line:
    [{"id","name","source","reprobe","op","parent","start_ns","end_ns"}]. *)
