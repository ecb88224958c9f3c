module Sim = Sg_os.Sim
module Cost = Sg_kernel.Cost
module Inttbl = Sg_util.Inttbl

type parent = Local of int | Cross of { client : Sg_os.Comp.cid; id : int }

type desc = {
  d_id : int;
  mutable d_server_id : int;
  mutable d_state : string;
  mutable d_meta : (string * Sg_os.Comp.value) list;
  mutable d_parent : parent option;
  mutable d_epoch : int;
  mutable d_live : bool;
}

type flavor = C3 | Superglue

type t = {
  fl : flavor;
  descs : desc Inttbl.t;
      (** looked up on every tracked call; [live] and [children] sort
          after they fold, so the table's order reaches no output *)
  mutable next_virtual : int;
}

(* virtual ids live far above any concrete server id so that the
   transient add-then-rekey window can never collide with a live
   virtual key *)
let virtual_base = 1 lsl 40

let create ~flavor () =
  { fl = flavor; descs = Inttbl.create 8; next_virtual = virtual_base }

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
  Inttbl.replace t.descs id d;
  d

let find t id = Inttbl.find_opt t.descs id

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

let find_or_untracked t id = Inttbl.find_or t.descs id untracked

let rekey t ~from ~to_ =
  match Inttbl.find_opt t.descs from with
  | None -> None
  | Some d ->
      Inttbl.remove t.descs from;
      let d' = { d with d_id = to_; d_server_id = from } in
      Inttbl.replace t.descs to_ d';
      Some d'

let find_exn t id =
  match find t id with
  | Some d -> d
  | None -> invalid_arg (Printf.sprintf "Tracker: unknown descriptor %d" id)

let remove t id = Inttbl.remove t.descs id

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
  Inttbl.fold
    (fun _ d acc ->
      match d.d_parent with
      | Some (Local pid) when pid = id && d.d_live -> d :: acc
      | _ -> acc)
    t.descs []
  |> List.sort (fun a b -> Int.compare a.d_id b.d_id)

let live t =
  Inttbl.fold (fun _ d acc -> if d.d_live then d :: acc else acc) t.descs []
  |> List.sort (fun a b -> Int.compare a.d_id b.d_id)

let count t = Inttbl.length t.descs
