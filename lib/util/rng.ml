(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64] field
   would box every new state, and [int64]'s result is boxed when it
   leaves the function. [next] is inlined into every draw, so the state
   and the mixed value stay in registers: a draw that returns an
   immediate allocates nothing. ([int64], [float] and [exponential]
   box their result, as any function returning one does.) *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let[@inline] mix64 z =
  let z = Int64.logxor z (Int64.shift_right_logical z 30) in
  let z = Int64.mul z 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  let z = Int64.mul z 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let int64 t = next t

let split t = of_state (next t)

let streams t n =
  if n < 0 then invalid_arg "Rng.streams: negative count";
  (* explicit loop: the draw order (hence every stream's state) must be
     stream 0 first, whatever Array.init would do *)
  let a = Array.make n t in
  for i = 0 to n - 1 do
    a.(i) <- split t
  done;
  a

let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* drop two bits so the value fits OCaml's 63-bit immediate ints *)
  let raw = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  raw mod bound

let[@inline] float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (raw /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L
let[@inline] bernoulli t p = float t 1.0 < p

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

(* the first choice whose cumulative weight exceeds [k] *)
let rec nth_weighted choices k acc i =
  let w, x = choices.(i) in
  let acc = acc + max 0 w in
  if k < acc then x else nth_weighted choices k acc (i + 1)

let weighted t choices =
  let total = Array.fold_left (fun acc (w, _) -> acc + max 0 w) 0 choices in
  if total <= 0 then invalid_arg "Rng.weighted: no positive weight";
  nth_weighted choices (int t total) 0 0

let[@inline] exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let gap_ns t ~mean = max 1 (int_of_float (exponential t ~mean))
