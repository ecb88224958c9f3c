type t = { mutable now : int }

let create () = { now = 0 }
let now t = t.now

let advance t ns =
  if ns < 0 then invalid_arg "Clock.advance: negative duration";
  t.now <- t.now + ns

let advance_to t deadline = if deadline > t.now then t.now <- deadline
let ns_of_us us = int_of_float (us *. 1_000.0)
let us_of_ns ns = float_of_int ns /. 1_000.0
let s_of_ns ns = float_of_int ns /. 1e9
