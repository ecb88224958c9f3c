(* checked on every invocation: integer hash and equality, no
   polymorphic [caml_hash] or [compare_val] *)
module Pair = struct
  type t = int * int

  let equal ((a1 : int), (b1 : int)) (a2, b2) = a1 = a2 && b1 = b2
  let hash ((a : int), (b : int)) = ((a * 65599) + b) land max_int
end

module Tbl = Hashtbl.Make (Pair)

type t = unit Tbl.t

let create () = Tbl.create 64
let grant t ~client ~server = Tbl.replace t (client, server) ()
let revoke t ~client ~server = Tbl.remove t (client, server)
let allowed t ~client ~server = Tbl.mem t (client, server)

let servers_of t ~client =
  Tbl.fold (fun (c, s) () acc -> if c = client then s :: acc else acc) t []
  |> List.sort_uniq compare

let clients_of t ~server =
  Tbl.fold (fun (c, s) () acc -> if s = server then c :: acc else acc) t []
  |> List.sort_uniq compare
