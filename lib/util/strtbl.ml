include Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash (s : string) = Hashtbl.hash s
end)
