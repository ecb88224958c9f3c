(* checked on every invocation: one packed integer key, so the check is
   an [Inttbl] probe with no tuple to allocate and no polymorphic
   [caml_hash] or [compare_val] *)
module Inttbl = Sg_util.Inttbl

type t = unit Inttbl.t

let max_cid = (1 lsl 30) - 1
let in_range cid = cid >= 0 && cid <= max_cid
(* [Inttbl] folds the high half into its index: client lxor server *)
let key ~client ~server = (client lsl 32) lor server

let checked_key ~client ~server =
  if in_range client && in_range server then key ~client ~server
  else invalid_arg (Printf.sprintf "Captbl: cid pair (%d, %d) out of range" client server)

let create () = Inttbl.create 16
let grant t ~client ~server = Inttbl.replace t (checked_key ~client ~server) ()
let revoke t ~client ~server = Inttbl.remove t (checked_key ~client ~server)

(* nothing out of range was ever granted *)
let allowed t ~client ~server =
  in_range client && in_range server && Inttbl.mem t (key ~client ~server)

let pairs t = Inttbl.fold (fun k () acc -> (k lsr 32, k land 0xffff_ffff) :: acc) t []

let servers_of t ~client =
  List.filter_map (fun (c, s) -> if c = client then Some s else None) (pairs t)
  |> List.sort_uniq compare

let clients_of t ~server =
  List.filter_map (fun (c, s) -> if s = server then Some c else None) (pairs t)
  |> List.sort_uniq compare
