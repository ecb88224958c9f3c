module Sim = Sg_os.Sim
module Cost = Sg_kernel.Cost
module Inttbl = Sg_util.Inttbl

type parent = Local of int | Cross of { client : Sg_os.Comp.cid; id : int }

type desc = {
  d_id : int;
  mutable d_server_id : int;
  mutable d_state : string;
  mutable d_meta : (string * Sg_os.Comp.value) list;
  d_parent : parent option;
  mutable d_epoch : int;
  mutable d_live : bool;
}

type flavor = C3 | Superglue

type t = {
  fl : flavor;
  descs : desc Inttbl.t;
      (** looked up on every tracked call; [live] sorts after it folds,
          so the table's order reaches no output *)
  mutable kids : desc list Inttbl.t;
      (** by [Local] parent id: the records of [descs] that name it,
          live or not, newest first. [children] reads one entry, not
          the whole table: a stub that keeps every released record
          (C³'s mm) would otherwise scan all of them per release.
          [no_kids] until the first record with a parent arrives, so a
          tracker of a parentless interface allocates no table. *)
  mutable next_virtual : int;
  mutable examined : int;  (** records [children] has read *)
}

(* virtual ids live far above any concrete server id so that the
   transient add-then-rekey window can never collide with a live
   virtual key *)
let virtual_base = 1 lsl 40

(* shared and never written: [link] replaces it before the first write *)
let no_kids = Inttbl.create 1

(* most trackers hold a handful of descriptors; the table grows *)
let create ~flavor () =
  {
    fl = flavor;
    descs = Inttbl.create 4;
    kids = no_kids;
    next_virtual = virtual_base;
    examined = 0;
  }

let untracked =
  {
    d_id = -1;
    d_server_id = -1;
    d_state = "";
    d_meta = [];
    d_parent = None;
    d_epoch = -1;
    d_live = false;
  }

(* [d]'s entry in its parent's [kids], added as [d] enters [descs] and
   dropped as it leaves *)
let link t d =
  match d.d_parent with
  | Some (Local pid) ->
      if t.kids == no_kids then t.kids <- Inttbl.create 8;
      Inttbl.replace t.kids pid (d :: Inttbl.find_or t.kids pid [])
  | Some (Cross _) | None -> ()

let unlink t d =
  match d.d_parent with
  | Some (Local pid) -> (
      match List.filter (fun k -> k != d) (Inttbl.find_or t.kids pid []) with
      | [] -> Inttbl.remove t.kids pid
      | rest -> Inttbl.replace t.kids pid rest)
  | Some (Cross _) | None -> ()

(* bind [id] to [d] in [descs], unlinking the record it replaces *)
let bind t id d =
  let old = Inttbl.find_or t.descs id untracked in
  if old != untracked then unlink t old;
  Inttbl.replace t.descs id d;
  link t d

let fresh t =
  let v = t.next_virtual in
  t.next_virtual <- v + 1;
  v
let flavor t = t.fl

let track_charge t sim =
  let c = Sim.cost sim in
  Sim.charge sim
    (match t.fl with C3 -> c.Cost.c3_track_ns | Superglue -> c.Cost.sg_track_ns)

let lookup_charge _t sim = Sim.charge sim (Sim.cost sim).Cost.sg_lookup_ns

let add t sim ?server_id ?parent ~state ~meta ~epoch id =
  track_charge t sim;
  let d =
    {
      d_id = id;
      d_server_id = Option.value server_id ~default:id;
      d_state = state;
      d_meta = meta;
      d_parent = parent;
      d_epoch = epoch;
      d_live = true;
    }
  in
  bind t id d;
  d

let find t id = Inttbl.find_opt t.descs id

let find_or_untracked t id = Inttbl.find_or t.descs id untracked

let rekey t ~from ~to_ =
  match Inttbl.find_opt t.descs from with
  | None -> None
  | Some d ->
      Inttbl.remove t.descs from;
      unlink t d;
      let d' = { d with d_id = to_; d_server_id = from } in
      bind t to_ d';
      Some d'

let find_exn t id =
  match find t id with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Tracker: unknown descriptor %d" id)

let remove t id =
  let d = Inttbl.find_or t.descs id untracked in
  if d != untracked then begin
    Inttbl.remove t.descs id;
    unlink t d
  end

let set_state t sim d state =
  track_charge t sim;
  d.d_state <- state

(* [List.remove_assoc]/[List.assoc_opt] with [String.equal] for the
   polymorphic compare: both run on every tracked call *)
let rec remove_key key = function
  | [] -> []
  | ((k, _) as kv) :: rest ->
      if String.equal k key then rest else kv :: remove_key key rest

let set_meta t sim d key v =
  track_charge t sim;
  d.d_meta <- (key, v) :: remove_key key d.d_meta

let rec meta_of key = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k key then Some v else meta_of key rest

let meta d key = meta_of key d.d_meta

let meta_int d key =
  match meta d key with Some (Sg_os.Comp.VInt i) -> Some i | _ -> None

let meta_str d key =
  match meta d key with Some (Sg_os.Comp.VStr s) -> Some s | _ -> None

let children t id =
  let kids = Inttbl.find_or t.kids id [] in
  t.examined <- t.examined + List.length kids;
  List.filter (fun d -> d.d_live) kids
  |> List.sort (fun a b -> Int.compare a.d_id b.d_id)

let examined t = t.examined

let live t =
  Inttbl.fold (fun _ d acc -> if d.d_live then d :: acc else acc) t.descs []
  |> List.sort (fun a b -> Int.compare a.d_id b.d_id)

let count t = Inttbl.length t.descs
