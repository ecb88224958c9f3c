module Sim = Sg_os.Sim
module Cost = Sg_kernel.Cost
module Strtbl = Sg_util.Strtbl

type desc_record = {
  dr_creator : Sg_os.Comp.cid;
  dr_meta : (string * Sg_os.Comp.value) list;
}

(* (space, id) keys with monomorphic hash and equality: creations of
   global descriptors and G1 slices look these up *)
module Key = Hashtbl.Make (struct
  type t = string * int

  let equal (s1, (i1 : int)) (s2, i2) = i1 = i2 && String.equal s1 s2
  let hash (s, (i : int)) = ((i * 31) + String.length s) land max_int
end)

type t = {
  _cbufs : Sg_cbuf.Cbuf.t;
  descs : desc_record Key.t;
  max_ids : int Strtbl.t;
      (** space -> [max 0] over its registered ids (G0 reseed point) *)
  data : (int * int * int * Sg_cbuf.Cbuf.id) list ref Key.t;
      (** (seq, off, len, cbuf), newest first *)
  mutable seq : int;
  mutable writes : int;  (** charged write operations so far *)
  mutable write_faults : int list;  (** pending 1-based write indices, ascending *)
  mutable write_faults_hit : int;
}

let create cbufs =
  {
    _cbufs = cbufs;
    descs = Key.create 64;
    max_ids = Strtbl.create 8;
    data = Key.create 64;
    seq = 0;
    writes = 0;
    write_faults = [];
    write_faults_hit = 0;
  }

let charge sim = Sim.charge sim (Sim.cost sim).Cost.storage_op_ns

(* each charged operation also contributes a structured event, so the
   metrics layer can count storage traffic per run *)
let op sim name ~space ~id =
  charge sim;
  Sim.emit sim (Sg_obs.Event.Storage_op { op = name; space; id })

let arm_write_faults t ~at =
  t.write_faults <- List.sort_uniq compare (List.filter (fun n -> n > 0) at)

let write_faults_hit t = t.write_faults_hit

(* storage writes are the redundancy path itself, so a fault here is
   modeled as detected-and-retried: the medium rejects the write once,
   the component pays a second operation charge and the retry succeeds.
   Semantics are unchanged (the trusted store stays correct, paper
   §II-E); only the timing and the event stream show the fault. *)
let write_fault_point t sim name =
  t.writes <- t.writes + 1;
  match t.write_faults with
  | n :: rest when n = t.writes ->
      t.write_faults <- rest;
      t.write_faults_hit <- t.write_faults_hit + 1;
      charge sim;
      Sim.emit sim
        (Sg_obs.Event.Note { name = "storage-write-fault"; data = name })
  | _ -> ()

let max_desc_id t ~space =
  Option.value (Strtbl.find_opt t.max_ids space) ~default:0

let register_desc t sim ~space ~id ~creator ~meta =
  op sim "register_desc" ~space ~id;
  write_fault_point t sim "register_desc";
  Key.replace t.descs (space, id) { dr_creator = creator; dr_meta = meta };
  if id > max_desc_id t ~space then Strtbl.replace t.max_ids space id

let lookup_desc t sim ~space ~id =
  op sim "lookup_desc" ~space ~id;
  Option.map
    (fun r -> (r.dr_creator, r.dr_meta))
    (Key.find_opt t.descs (space, id))

let descs_in t ~space =
  Key.fold
    (fun (s, id) _ acc -> if s = space then id :: acc else acc)
    t.descs []
  |> List.sort compare

(* only removing the current max moves it; the rescan is O(registry),
   and nothing on the recovery path removes descriptors *)
let remove_desc t sim ~space ~id =
  op sim "remove_desc" ~space ~id;
  Key.remove t.descs (space, id);
  if id = max_desc_id t ~space then
    Strtbl.replace t.max_ids space
      (List.fold_left max 0 (descs_in t ~space))

let put_slice t sim ~space ~id ~off ~len ~cbuf =
  op sim "put_slice" ~space ~id;
  write_fault_point t sim "put_slice";
  let key = (space, id) in
  let cell =
    match Key.find_opt t.data key with
    | Some c -> c
    | None ->
        let c = ref [] in
        Key.replace t.data key c;
        c
  in
  t.seq <- t.seq + 1;
  (* slices fully covered by the new one can never matter again: drop
     them so overwrite-heavy workloads stay bounded *)
  let covered (_, o, l, _) = o >= off && o + l <= off + len in
  cell := (t.seq, off, len, cbuf) :: List.filter (fun s -> not (covered s)) !cell

let slices t sim ~space ~id =
  op sim "slices" ~space ~id;
  match Key.find_opt t.data (space, id) with
  | None -> []
  | Some c ->
      (* replay order is write order: later writes must win where
         slices overlap *)
      List.sort compare !c |> List.map (fun (_, o, l, b) -> (o, l, b))

let drop_slices t sim ~space ~id =
  op sim "drop_slices" ~space ~id;
  Key.remove t.data (space, id)

let slice_count t =
  Key.fold (fun _ c acc -> acc + List.length !c) t.data 0
