module Strtbl = Sg_util.Strtbl

type state = string

let s0 = "s0"
let after fn = "after:" ^ fn

type plan = { pl_path : string list; pl_restore : string list }

type edge = { e_from : state; e_fn : string; e_to : state }

type t = {
  m_ir : Ir.t;
  m_states : state list;
  m_edges : edge list;
  m_class : (state * state) list;
  m_sources : (string * state list) list;
  m_plans : (state * plan) list;
}

(* [List.assoc] with [String.equal] and a default: the tables are a few
   entries long, and [plan] runs on every recovery walk *)
let rec assoc key default = function
  | [] -> default
  | (k, v) :: rest -> if String.equal k key then v else assoc key default rest

let sigma t state fn =
  List.find_map
    (fun e -> if e.e_from = state && e.e_fn = fn then Some e.e_to else None)
    t.m_edges

let states t = t.m_states
let sources t fn = assoc fn [] t.m_sources
let class_of t s = assoc s s t.m_class
let same_class t a b = String.equal (class_of t a) (class_of t b)

(* Union-find over states for recovery-equivalence classes. *)
module Uf = struct
  let find parents s =
    let rec go s =
      match Strtbl.find_opt parents s with
      | None | Some "" -> s
      | Some p when p = s -> s
      | Some p -> go p
    in
    go s

  let union parents a b =
    let ra = find parents a and rb = find parents b in
    if ra <> rb then Strtbl.replace parents ra rb
end

(* the distinct elements of [l], in first-occurrence order *)
let dedup l =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] l)

(* Data-restoring functions: replayable, non-create, non-terminal calls
   whose return value resets a tracked datum that is also one of their
   own tracked arguments (the paper's lseek pattern). *)
let restore_fns ir =
  List.filter_map
    (fun f ->
      let open Ast in
      let has_desc = List.exists (fun p -> p.pa_attr = ADesc) f.Ir.f_params in
      let resets =
        match f.Ir.f_retval with
        | Some { ra_name; _ } ->
            List.exists
              (fun p -> p.pa_attr = ADescData && p.pa_name = ra_name)
              f.Ir.f_params
        | None -> false
      in
      if
        has_desc && resets
        && Ir.is_replayable ir f
        && (not (Ir.is_create ir f.Ir.f_name))
        && not (Ir.is_terminal ir f.Ir.f_name)
      then Some f.Ir.f_name
      else None)
    ir.Ir.ir_funcs

let build ir =
  let sts =
    s0 :: List.map (fun f -> after f.Ir.f_name) ir.Ir.ir_funcs
  in
  let edges =
    List.map (fun c -> { e_from = s0; e_fn = c; e_to = after c }) ir.Ir.ir_creates
    @ List.map
        (fun (g, f) -> { e_from = after g; e_fn = f; e_to = after f })
        ir.Ir.ir_transitions
  in
  (* Recovery-equivalence: collapse only across edges whose function has
     untracked plain arguments — its effect cannot be replayed from
     tracked data and is either resource data restored through the
     storage component (G1) or covered by a data-restoring call. Block
     edges do NOT collapse: the pre- and post-wakeup states differ by a
     pending wakeup the walk must regenerate (the latch). *)
  let has_plain f = List.exists (fun p -> p.Ast.pa_attr = Ast.APlain) f.Ir.f_params in
  let parents = Strtbl.create 16 in
  List.iter
    (fun e ->
      let f = Ir.func_exn ir e.e_fn in
      if has_plain f && e.e_from <> s0 then Uf.union parents e.e_from e.e_to)
    edges;
  let class_of s = Uf.find parents s in
  (* the σ-sources of a function, in edge order *)
  let sources fn =
    dedup (List.filter_map (fun e -> if e.e_fn = fn then Some e.e_from else None) edges)
  in
  (* BFS over replayable edges between distinct classes, from class(s0);
     transient-block edges are never walked (the blocked thread's own
     redo re-establishes them) *)
  let dist = Strtbl.create 16 in
  let pred = Strtbl.create 16 in
  let q = Queue.create () in
  let c0 = class_of s0 in
  Strtbl.replace dist c0 0;
  Queue.add c0 q;
  while not (Queue.is_empty q) do
    let c = Queue.pop q in
    let d = Strtbl.find dist c in
    List.iter
      (fun e ->
        if class_of e.e_from = c then begin
          let f = Ir.func_exn ir e.e_fn in
          let c' = class_of e.e_to in
          if
            c' <> c
            && Ir.is_replayable ir f
            && not (Strtbl.mem dist c')
          then begin
            Strtbl.replace dist c' (d + 1);
            Strtbl.replace pred c' (e.e_fn, c);
            Queue.add c' q
          end
        end)
      edges
  done;
  let path_to cls =
    let rec back cls acc =
      if cls = c0 then Some acc
      else
        match Strtbl.find_opt pred cls with
        | Some (fn, prev) -> back prev (fn :: acc)
        | None -> None
    in
    back cls []
  in
  (* An unreachable state (its incoming functions are all un-walkable,
     e.g. a transient block) recovers to its cheapest sigma-predecessor:
     the diverted thread's redo replays the blocking call itself. *)
  let rec resolve visited st =
    if List.mem st visited then None
    else
      match path_to (class_of st) with
      | Some p -> Some p
      | None ->
          let preds =
            List.filter_map
              (fun e -> if e.e_to = st then Some e.e_from else None)
              edges
          in
          List.filter_map (fun p -> resolve (st :: visited) p) preds
          |> List.sort (fun a b -> compare (List.length a) (List.length b))
          |> function
          | [] -> None
          | best :: _ -> Some best
  in
  let restores = restore_fns ir in
  let fallback =
    match ir.Ir.ir_creates with [] -> [] | c :: _ -> [ c ]
  in
  let plan st =
    let cls = class_of st in
    let path = match resolve [] st with Some p -> p | None -> fallback in
    (* append the data restores applicable in the target class: those
       with a valid transition from some state of the class *)
    let restore =
      List.filter
        (fun fn -> List.exists (fun s -> class_of s = cls) (sources fn))
        restores
    in
    { pl_path = path; pl_restore = restore }
  in
  let endpoints = List.concat_map (fun e -> [ e.e_from; e.e_to ]) edges in
  {
    m_ir = ir;
    m_states = sts;
    m_edges = edges;
    m_class =
      List.filter_map
        (fun s -> if class_of s = s then None else Some (s, class_of s))
        (dedup (sts @ endpoints));
    m_sources =
      List.map (fun fn -> (fn, sources fn)) (dedup (List.map (fun e -> e.e_fn) edges));
    m_plans = List.map (fun st -> (st, plan st)) (dedup sts);
  }

(* an unknown tracked state (never produced by tracking) falls back to
   the shortest creation *)
let rec find_plan t state = function
  | (s, p) :: rest -> if String.equal s state then p else find_plan t state rest
  | [] -> (
      match t.m_ir.Ir.ir_creates with
      | [] -> { pl_path = []; pl_restore = [] }
      | c :: _ -> { pl_path = [ c ]; pl_restore = [] })

let plan t state = find_plan t state t.m_plans

let to_dot t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "digraph %S {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n"
       t.m_ir.Ir.ir_name);
  List.iter
    (fun st ->
      let p = plan t st in
      let recovery =
        if st = s0 then ""
        else
          Printf.sprintf "\\nrecover: %s%s"
            (String.concat " -> " p.pl_path)
            (match p.pl_restore with
            | [] -> ""
            | r -> "; " ^ String.concat " " r)
      in
      Buffer.add_string buf
        (Printf.sprintf "  %S [label=\"%s%s\"];\n" st st recovery))
    t.m_states;
  List.iter
    (fun e ->
      let style =
        if Ir.is_transient_block t.m_ir e.e_fn then "dashed" else "solid"
      in
      Buffer.add_string buf
        (Printf.sprintf "  %S -> %S [label=%S, style=%s];\n" e.e_from e.e_to
           e.e_fn style))
    t.m_edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
