type t = EAX | EBX | ECX | EDX | ESI | EDI | ESP | EBP

let all = [| EAX; EBX; ECX; EDX; ESI; EDI; ESP; EBP |]
let general = [| EAX; EBX; ECX; EDX; ESI; EDI |]

let to_string = function
  | EAX -> "EAX"
  | EBX -> "EBX"
  | ECX -> "ECX"
  | EDX -> "EDX"
  | ESI -> "ESI"
  | EDI -> "EDI"
  | ESP -> "ESP"
  | EBP -> "EBP"

let of_string = function
  | "EAX" -> Some EAX
  | "EBX" -> Some EBX
  | "ECX" -> Some ECX
  | "EDX" -> Some EDX
  | "ESI" -> Some ESI
  | "EDI" -> Some EDI
  | "ESP" -> Some ESP
  | "EBP" -> Some EBP
  | _ -> None

let index = function
  | EAX -> 0
  | EBX -> 1
  | ECX -> 2
  | EDX -> 3
  | ESI -> 4
  | EDI -> 5
  | ESP -> 6
  | EBP -> 7

let compare a b = Int.compare (index a) (index b)
let equal a b = index a = index b
let pp ppf r = Format.pp_print_string ppf (to_string r)
