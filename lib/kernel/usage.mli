(** Register-usage schedules: the substrate of the SWIFI outcome model.

    The paper injects single-bit flips into live registers of a thread
    executing inside a target component and observes fail-stop behaviour
    (§II-A, §V-A). We model each interface operation as a schedule of
    register accesses over its execution window. A flip's consequence is
    decided by the *next* access to the flipped register, exactly as on
    real hardware:

    - next access writes the register: the upset is overwritten, the
      fault is never activated (undetected);
    - read as a data pointer: a flipped high bit leaves the component's
      address space, so the hardware raises a page fault (fail-stop,
      detected); a flipped low bit stays inside the component and silently
      corrupts state, which is either caught by the service's internal
      integrity assertions (fail-stop, detected later) or — for operations
      that return derived data before any check — escapes to the client
      (propagated, unrecoverable);
    - read as the stack pointer or frame pointer: low-bit flips land
      inside the stack and smash the return path, crashing the system
      outside the recoverable region (segfault); high-bit flips page-fault
      immediately (fail-stop);
    - read as a loop bound: a flipped high bit produces an effectively
      infinite loop (latent fault / hang, cf. C'MON); low bits are either
      masked or caught by assertions;
    - registers never read again are dead: undetected.

    Every classification is a pure function of (register, bit, offset) and
    the schedule, so campaigns are reproducible. *)

type sink =
  | Checked  (** value feeds an integrity assertion before any use *)
  | Returned  (** value is returned to the client before any check *)
  | Loop_bound  (** value bounds an iteration *)
  | Scratch  (** value only affects a dead temporary *)

type use =
  | Write
  | Read_pointer of { bound_bits : int; escapes : bool }
      (** dereference; [bound_bits] = log2 of the component's mapped
          bytes, [escapes] = derived data returned before a check *)
  | Read_stackptr of { red_bits : int }
      (** ESP/EBP use; flips below [red_bits] corrupt the return path *)
  | Read_data of sink

type event = { at : int;  (** ns offset within the operation *) reg : Reg.t; use : use }

type t = private {
  duration_ns : int;
  events : event array;
  by_reg : event array;
      (** [events] grouped by register, each group in [events] order *)
  reg_start : int array;
      (** the events of [r] are [by_reg.(reg_start.(Reg.index r))] up to
          [by_reg.(reg_start.(Reg.index r + 1) - 1)] *)
}
(** [events] is sorted by [at]. *)

val make : duration_ns:int -> event list -> t
(** Sorts the events; raises [Invalid_argument] if any offset is negative
    or beyond the duration. *)

val cyclic : duration_ns:int -> stride:int -> (Reg.t * use list) list -> t
(** [cyclic ~duration_ns ~stride patterns] lays the k-th use of each
    register's cyclic pattern at offset [k * stride], for every
    [k * stride <= duration_ns]: the schedule {!make} builds from those
    events (same [by_reg] and [reg_start]; ties in [events] in register
    order), in linear time. Raises [Invalid_argument] for a
    non-positive stride or two patterns for one register. *)

val duration_ns : t -> int

type verdict =
  | Undetected
  | Failstop of string  (** detected fail-stop; the payload names the
                            detector, e.g. "pagefault" or "assert" *)
  | Segfault
  | Propagated
  | Hang

val classify : t -> reg:Reg.t -> bit:int -> at:int -> verdict
(** Consequence of flipping [bit] of [reg] at offset [at] within an
    operation described by this schedule. The deciding access is the
    first event of [reg] in [events] order with offset [>= at], found by
    binary search in [by_reg]: O(log n) per flip. *)

val verdict_to_string : verdict -> string

(** Helpers for building realistic schedules concisely. *)

val window :
  ?start:int ->
  duration_ns:int ->
  per_reg:(Reg.t * use) list ->
  stride:int ->
  unit ->
  event list
(** [window ~duration_ns ~per_reg ~stride ()] repeats each (register, use)
    pair every [stride] ns across the window starting at [start]
    (default 0). *)
