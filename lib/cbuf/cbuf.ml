module Sim = Sg_os.Sim
module Cost = Sg_kernel.Cost
module Inttbl = Sg_util.Inttbl

type id = int

type buf = {
  b_owner : Sg_os.Comp.cid;
  b_data : Bytes.t;
  mutable b_readers : Sg_os.Comp.cid list;
}

type t = { mutable next_id : int; bufs : buf Inttbl.t }

let create () = { next_id = 1; bufs = Inttbl.create 4 }

let alloc t sim ~owner ~size =
  Sim.charge sim (Sim.cost sim).Cost.cbuf_map_ns;
  let id = t.next_id in
  t.next_id <- id + 1;
  Inttbl.replace t.bufs id
    { b_owner = owner; b_data = Bytes.make size '\000'; b_readers = [] };
  id

let write t sim ~writer id ~pos s =
  Sim.charge sim (Sim.cost sim).Cost.cbuf_map_ns;
  match Inttbl.find_opt t.bufs id with
  | None -> Error `Unknown
  | Some b ->
      if b.b_owner <> writer then Error `Denied
      else if pos < 0 || pos + String.length s > Bytes.length b.b_data then
        Error `Bounds
      else begin
        Bytes.blit_string s 0 b.b_data pos (String.length s);
        Ok ()
      end

let grant_read t sim id ~reader =
  Sim.charge sim (Sim.cost sim).Cost.cbuf_map_ns;
  match Inttbl.find_opt t.bufs id with
  | None -> ()
  | Some b ->
      if not (List.mem reader b.b_readers) then
        b.b_readers <- reader :: b.b_readers

let read t ~reader id ~pos ~len =
  match Inttbl.find_opt t.bufs id with
  | None -> Error `Unknown
  | Some b ->
      if b.b_owner <> reader && not (List.mem reader b.b_readers) then
        Error `Denied
      else if pos < 0 || len < 0 || pos + len > Bytes.length b.b_data then
        Error `Bounds
      else Ok (Bytes.sub_string b.b_data pos len)

let size t id =
  Option.map (fun b -> Bytes.length b.b_data) (Inttbl.find_opt t.bufs id)

let owner t id = Option.map (fun b -> b.b_owner) (Inttbl.find_opt t.bufs id)
let free t id = Inttbl.remove t.bufs id
let count t = Inttbl.length t.bufs
