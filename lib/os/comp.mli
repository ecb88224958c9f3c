(** Values, error codes and fault exceptions shared across the OS layer.

    Component interfaces exchange only these flat values — mirroring the
    hardware isolation of COMPOSITE, where components cannot share data
    structures or pass addresses directly (paper §II-B). Faults can
    therefore propagate between components only through interface
    values. *)

type cid = int
(** Component identifier. *)

type value =
  | VUnit
  | VBool of bool
  | VInt of int
  | VStr of string
  | VList of value list
      (** only used by reflection interfaces, which enumerate state *)

type errno = EINVAL | ENOENT | EAGAIN | ENOMEM | EPERM | EFAULT

type 'a outcome = ('a, errno) result

exception Crash of { cid : cid; detector : string }
(** A detected fail-stop fault in component [cid]: the hardware exception
    (or internal assertion named by [detector]) fired while a thread
    executed inside it. Client stubs catch this to drive recovery. *)

exception Diverted of { cid : cid }
(** Raised at the suspension point of a thread that was blocked inside a
    component when that component was micro-rebooted: the thread is
    diverted back to the invoking client stub (paper §II-C). *)

exception Sys_segfault of { cid : cid }
(** Unrecoverable: the fault smashed the return path and the system
    exited with a segmentation fault (paper Table II column 4). *)

exception Sys_hang of { cid : cid }
(** Unrecoverable latent fault: the component entered an infinite loop
    (paper Table II "other reason"). *)

exception Sys_propagated of { cid : cid }
(** Unrecoverable: corrupted data escaped through the interface to a
    client before detection (paper Table II column 5). *)

val errno_to_string : errno -> string
val value_to_string : value -> string

val int_exn : value -> int
(** Raises [Invalid_argument] on a non-integer value; interface marshaling
    errors are programming errors, not recoverable conditions. *)

val str_exn : value -> string
val bool_exn : value -> bool
val unit_exn : value -> unit
val list_exn : value -> value list
