module Inttbl = Sg_util.Inttbl

type frame = int

type t = {
  total_frames : int;
  mutable next_frame : int;
  free : frame Stack.t;
  ptes : frame Inttbl.t;  (** [key ~cid ~vaddr] -> frame *)
}

(* (cid, vaddr) packed into one integer: no tuple to allocate and no
   polymorphic hash on a page-table probe *)
let key ~cid ~vaddr =
  if cid < 0 || cid >= 1 lsl 30 || vaddr < 0 || vaddr >= 1 lsl 32 then
    invalid_arg
      (Printf.sprintf "Frames.key: (cid %d, vaddr %d) out of range" cid vaddr);
  (cid lsl 32) lor vaddr

let cid_of_key k = k lsr 32
let vaddr_of_key k = k land 0xffff_ffff

let create ?(total_frames = 65536) () =
  { total_frames; next_frame = 0; free = Stack.create (); ptes = Inttbl.create 4 }

let alloc_frame t =
  match Stack.pop_opt t.free with
  | Some f -> Some f
  | None ->
      if t.next_frame >= t.total_frames then None
      else begin
        let f = t.next_frame in
        t.next_frame <- f + 1;
        Some f
      end

let free_frame t f = Stack.push f t.free

let map t ~cid ~vaddr frame =
  let k = key ~cid ~vaddr in
  if Inttbl.mem t.ptes k then Error `Exists
  else begin
    Inttbl.replace t.ptes k frame;
    Ok ()
  end

let unmap t ~cid ~vaddr =
  let k = key ~cid ~vaddr in
  match Inttbl.find_opt t.ptes k with
  | None -> Error `Absent
  | Some frame ->
      Inttbl.remove t.ptes k;
      Ok frame

let lookup t ~cid ~vaddr = Inttbl.find_opt t.ptes (key ~cid ~vaddr)

let mappings_of t ~cid =
  Inttbl.fold
    (fun k frame acc ->
      if cid_of_key k = cid then (vaddr_of_key k, frame) :: acc else acc)
    t.ptes []
  |> List.sort compare

let mapping_count t = Inttbl.length t.ptes
