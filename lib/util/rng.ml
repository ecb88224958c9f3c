type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let mix64 z =
  let z = Int64.logxor z (Int64.shift_right_logical z 30) in
  let z = Int64.mul z 0xBF58476D1CE4E5B9L in
  let z = Int64.logxor z (Int64.shift_right_logical z 27) in
  let z = Int64.mul z 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = int64 t }

let streams t n =
  if n < 0 then invalid_arg "Rng.streams: negative count";
  (* explicit loop: the draw order (hence every stream's state) must be
     stream 0 first, whatever Array.init would do *)
  let a = Array.make n t in
  for i = 0 to n - 1 do
    a.(i) <- split t
  done;
  a

let copy t = { state = t.state }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* drop two bits so the value fits OCaml's 63-bit immediate ints *)
  let raw = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  raw mod bound

let float t bound =
  let raw = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bound *. (raw /. 9007199254740992.0)

let bool t = Int64.logand (int64 t) 1L = 1L
let bernoulli t p = float t 1.0 < p

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

let exponential t ~mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u
