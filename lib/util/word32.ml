type t = int

let width = 32
let mask w = w land 0xFFFFFFFF

let flip_bit w i =
  if i < 0 || i >= width then invalid_arg "Word32.flip_bit: bit out of range";
  mask (w lxor (1 lsl i))

let bit w i =
  if i < 0 || i >= width then invalid_arg "Word32.bit: bit out of range";
  (w lsr i) land 1 = 1

let apply_mask w m = mask (w lxor m)

let popcount w =
  let rec go acc w = if w = 0 then acc else go (acc + (w land 1)) (w lsr 1) in
  go 0 (mask w)

let to_hex w = Printf.sprintf "0x%08X" (mask w)
