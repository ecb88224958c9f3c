module Sim = Sg_os.Sim
module Cost = Sg_kernel.Cost
module Inttbl = Sg_util.Inttbl

type desc_record = {
  dr_creator : Sg_os.Comp.cid;
  dr_meta : (string * Sg_os.Comp.value) list;
}

(* one resource type's records: a system has a few spaces, so they are a
   list, each space made at its first write *)
type space = {
  sp_name : string;
  sp_descs : desc_record Inttbl.t;
  mutable sp_max : int;  (** [max 0] over the registered ids (G0 reseed point) *)
  sp_data : (int * int * int * Sg_cbuf.Cbuf.id) list ref Inttbl.t;
      (** id -> (seq, off, len, cbuf), newest first *)
}

type t = {
  _cbufs : Sg_cbuf.Cbuf.t;
  mutable spaces : space list;
  mutable seq : int;
  mutable writes : int;  (** charged write operations so far *)
  mutable write_faults : int list;  (** pending 1-based write indices, ascending *)
  mutable write_faults_hit : int;
}

let create cbufs =
  {
    _cbufs = cbufs;
    spaces = [];
    seq = 0;
    writes = 0;
    write_faults = [];
    write_faults_hit = 0;
  }

let rec find_space name = function
  | [] -> None
  | sp :: rest ->
      if String.equal sp.sp_name name then Some sp else find_space name rest

let space_of t name =
  match find_space name t.spaces with
  | Some sp -> sp
  | None ->
      let sp =
        {
          sp_name = name;
          sp_descs = Inttbl.create 16;
          sp_max = 0;
          sp_data = Inttbl.create 4;
        }
      in
      t.spaces <- sp :: t.spaces;
      sp

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
  match find_space space t.spaces with Some sp -> sp.sp_max | None -> 0

let register_desc t sim ~space ~id ~creator ~meta =
  op sim "register_desc" ~space ~id;
  write_fault_point t sim "register_desc";
  let sp = space_of t space in
  Inttbl.replace sp.sp_descs id { dr_creator = creator; dr_meta = meta };
  if id > sp.sp_max then sp.sp_max <- id

let lookup_desc t sim ~space ~id =
  op sim "lookup_desc" ~space ~id;
  match find_space space t.spaces with
  | None -> None
  | Some sp ->
      Option.map
        (fun r -> (r.dr_creator, r.dr_meta))
        (Inttbl.find_opt sp.sp_descs id)

let ids sp =
  List.sort Int.compare (Inttbl.fold (fun id _ acc -> id :: acc) sp.sp_descs [])

let descs_in t ~space =
  match find_space space t.spaces with Some sp -> ids sp | None -> []

(* only removing the current max moves it; the rescan is O(registry),
   and nothing on the recovery path removes descriptors *)
let remove_desc t sim ~space ~id =
  op sim "remove_desc" ~space ~id;
  match find_space space t.spaces with
  | None -> ()
  | Some sp ->
      Inttbl.remove sp.sp_descs id;
      if id = sp.sp_max then sp.sp_max <- List.fold_left max 0 (ids sp)

let put_slice t sim ~space ~id ~off ~len ~cbuf =
  op sim "put_slice" ~space ~id;
  write_fault_point t sim "put_slice";
  let sp = space_of t space in
  let cell =
    match Inttbl.find_opt sp.sp_data id with
    | Some c -> c
    | None ->
        let c = ref [] in
        Inttbl.replace sp.sp_data id c;
        c
  in
  t.seq <- t.seq + 1;
  (* slices fully covered by the new one can never matter again: drop
     them so overwrite-heavy workloads stay bounded *)
  let covered (_, o, l, _) = o >= off && o + l <= off + len in
  cell := (t.seq, off, len, cbuf) :: List.filter (fun s -> not (covered s)) !cell

let slices t sim ~space ~id =
  op sim "slices" ~space ~id;
  match
    Option.bind (find_space space t.spaces) (fun sp ->
        Inttbl.find_opt sp.sp_data id)
  with
  | None -> []
  | Some c ->
      (* replay order is write order: later writes must win where
         slices overlap *)
      List.sort compare !c |> List.map (fun (_, o, l, b) -> (o, l, b))

let drop_slices t sim ~space ~id =
  op sim "drop_slices" ~space ~id;
  Option.iter
    (fun sp -> Inttbl.remove sp.sp_data id)
    (find_space space t.spaces)

let slice_count t =
  List.fold_left
    (fun acc sp -> Inttbl.fold (fun _ c acc -> acc + List.length !c) sp.sp_data acc)
    0 t.spaces
