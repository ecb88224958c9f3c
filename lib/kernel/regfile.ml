module Word32 = Sg_util.Word32
module Rng = Sg_util.Rng

type t = int array

let index = function
  | Reg.EAX -> 0
  | Reg.EBX -> 1
  | Reg.ECX -> 2
  | Reg.EDX -> 3
  | Reg.ESI -> 4
  | Reg.EDI -> 5
  | Reg.ESP -> 6
  | Reg.EBP -> 7

let create () = Array.make 8 0
let copy = Array.copy
let get t r = t.(index r)
let set t r v = t.(index r) <- Word32.mask v
let flip_bit t r i = t.(index r) <- Word32.flip_bit t.(index r) i
let apply_mask t r m = t.(index r) <- Word32.apply_mask t.(index r) m

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun r -> Format.fprintf ppf "%a = %s@," Reg.pp r (Word32.to_hex (get t r)))
    Reg.all;
  Format.fprintf ppf "@]"
