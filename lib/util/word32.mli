(** 32-bit machine words for the simulated register file.

    The paper's platform encodes registers as single 32-bit words and
    injects faults by XOR-ing a fault mask against a register (§V-A).
    Values are stored in native [int]s kept in the range [\[0, 2^32)]. *)

type t = int

val mask : t -> t
(** Truncate to 32 bits. *)

val flip_bit : t -> int -> t
(** [flip_bit w i] flips bit [i] (0 = LSB). [i] must be in [\[0, 32)]. *)

val bit : t -> int -> bool
(** [bit w i] reads bit [i]. *)

val apply_mask : t -> t -> t
(** [apply_mask w m] XORs fault mask [m] into [w] (paper's SWIFI model). *)

val popcount : t -> int

val to_hex : t -> string
(** Rendering such as ["0xDEADBEEF"]. *)
