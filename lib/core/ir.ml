type func = {
  f_name : string;
  f_ret : string option;
  f_retval : Ast.retval_annot option;
  f_params : Ast.param list;
  f_pos : Ast.pos;
}

type t = {
  ir_name : string;
  ir_model : Model.t;
  ir_model_pos : Ast.pos;
  ir_funcs : func list;
  ir_creates : string list;
  ir_terminals : string list;
  ir_blocks : string list;
  ir_block_holds : string list;
  ir_wakeups : string list;
  ir_transitions : (string * string) list;
  ir_sm_decls : (Ast.sm_decl * Ast.pos) list;
}

exception Semantic_error of Diag.t list

let span ~name (pos : Ast.pos) =
  {
    Diag.sp_file = name;
    sp_line = pos.Ast.pos_line;
    sp_col = pos.Ast.pos_col;
  }

let func t name = List.find_opt (fun f -> f.f_name = name) t.ir_funcs

let fn_span t fn =
  Option.map (fun f -> span ~name:t.ir_name f.f_pos) (func t fn)

let fn_error t fn code msg =
  Diag.make ?span:(fn_span t fn) ~code ~severity:Diag.Error msg

let func_exn t name =
  match func t name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Ir: unknown function %s" name)

let index_of p params =
  let rec go i = function
    | [] -> None
    | x :: rest -> if p x then Some i else go (i + 1) rest
  in
  go 0 params

let desc_arg_index t fn =
  match func t fn with
  | None -> None
  | Some f -> index_of (fun p -> p.Ast.pa_attr = Ast.ADesc) f.f_params

let ns_arg_index f = index_of (fun p -> p.Ast.pa_attr = Ast.ADescNs) f.f_params

let parent_arg_index f =
  index_of
    (fun p ->
      match p.Ast.pa_attr with
      | Ast.AParentDesc | Ast.ADescDataParent -> true
      | Ast.APlain | Ast.ADesc | Ast.ADescData | Ast.ADescNs -> false)
    f.f_params

let is_create t fn = List.mem fn t.ir_creates
let is_terminal t fn = List.mem fn t.ir_terminals
let is_transient_block t fn = List.mem fn t.ir_blocks
let is_blocking t fn = is_transient_block t fn || List.mem fn t.ir_block_holds
let is_wakeup t fn = List.mem fn t.ir_wakeups

(* must agree with what Templates.emit_create_arm / emit_update_arm
   store *)
let captured t fn =
  match func t fn with
  | None -> []
  | Some f ->
      if is_create t fn then
        List.filter_map
          (fun p ->
            match p.Ast.pa_attr with
            | Ast.ADescData | Ast.ADescDataParent | Ast.ADescNs ->
                Some p.Ast.pa_name
            | Ast.APlain | Ast.ADesc | Ast.AParentDesc -> None)
          f.f_params
      else if is_terminal t fn then []
      else
        List.filter_map
          (fun p ->
            if p.Ast.pa_attr = Ast.ADescData then Some p.Ast.pa_name else None)
          f.f_params
        @
        match f.f_retval with
        | Some { Ast.ra_name; _ } -> [ ra_name ]
        | None -> []

(* must agree with Templates.walk_arg_expr, whose desc_ns and desc_data
   arguments go through meta_or *)
let replayed t fn =
  match func t fn with
  | None -> []
  | Some f ->
      List.filter_map
        (fun p ->
          match p.Ast.pa_attr with
          | Ast.ADescData | Ast.ADescNs -> Some p.Ast.pa_name
          | Ast.APlain | Ast.ADesc | Ast.AParentDesc | Ast.ADescDataParent ->
              None)
        f.f_params

let is_replayable t f =
  (not (is_transient_block t f.f_name))
  && List.for_all (fun p -> p.Ast.pa_attr <> Ast.APlain) f.f_params

let marshal_is_string ty =
  String.exists (fun c -> c = '*') ty
  || ty = "string"
  || ty = "char_ptr"

let bool_of ~name kv errors =
  match String.lowercase_ascii kv.Ast.gk_value with
  | "true" -> true
  | "false" -> false
  | v ->
      errors :=
        Diag.errorf ~code:"SG902"
          ~span:(span ~name kv.Ast.gk_pos)
          "%s must be true or false, not %s" kv.Ast.gk_key v
        :: !errors;
      false

let model_of_globals ~name kvs errors =
  List.fold_left
    (fun m kv ->
      match kv.Ast.gk_key with
      | "desc_block" -> { m with Model.block = bool_of ~name kv errors }
      | "resc_has_data" -> { m with Model.resc_data = bool_of ~name kv errors }
      | "desc_is_global" -> { m with Model.global = bool_of ~name kv errors }
      | "desc_has_parent" -> (
          match Model.parentage_of_string kv.Ast.gk_value with
          | Some p -> { m with Model.parent = p }
          | None ->
              errors :=
                Diag.errorf ~code:"SG902"
                  ~span:(span ~name kv.Ast.gk_pos)
                  "desc_has_parent must be solo, parent or xcparent"
                :: !errors;
              m)
      | "desc_close_children" ->
          { m with Model.close_children = bool_of ~name kv errors }
      | "desc_close_remove" ->
          { m with Model.close_remove = bool_of ~name kv errors }
      | "desc_has_data" -> { m with Model.desc_data = bool_of ~name kv errors }
      | "desc_table_cap" -> (
          match int_of_string_opt kv.Ast.gk_value with
          | Some n when n > 0 -> { m with Model.table_cap = Some n }
          | _ ->
              errors :=
                Diag.errorf ~code:"SG902"
                  ~span:(span ~name kv.Ast.gk_pos)
                  "desc_table_cap must be a positive integer, not %s"
                  kv.Ast.gk_value
                :: !errors;
              m)
      | key ->
          errors :=
            Diag.errorf ~code:"SG902"
              ~span:(span ~name kv.Ast.gk_pos)
              "unknown model key %s" key
            :: !errors;
          m)
    Model.default kvs

let of_ast ~name ast =
  let errors = ref [] in
  let err ?pos fmt =
    let span = Option.map (fun p -> span ~name p) pos in
    Printf.ksprintf
      (fun m -> errors := Diag.make ?span ~code:"SG902" ~severity:Diag.Error m :: !errors)
      fmt
  in
  let funcs =
    List.filter_map
      (function
        | Ast.Fn fd ->
            Some
              {
                f_name = fd.Ast.fd_name;
                f_ret = fd.Ast.fd_ret;
                f_retval = fd.Ast.fd_retval;
                f_params = fd.Ast.fd_params;
                f_pos = fd.Ast.fd_pos;
              }
        | Ast.Global _ | Ast.Sm _ -> None)
      ast
  in
  let model, model_pos =
    match
      List.filter_map (function Ast.Global kvs -> Some kvs | _ -> None) ast
    with
    | [ kvs ] ->
        let pos =
          match kvs with [] -> Ast.no_pos | kv :: _ -> kv.Ast.gk_pos
        in
        (model_of_globals ~name kvs errors, pos)
    | [] ->
        err "missing service_global_info block";
        (Model.default, Ast.no_pos)
    | _ ->
        err "multiple service_global_info blocks";
        (Model.default, Ast.no_pos)
  in
  let declared fn = List.exists (fun f -> f.f_name = fn) funcs in
  let check fn pos =
    if not (declared fn) then err ~pos "%s is not a declared function" fn
  in
  let sm_decls =
    List.filter_map
      (function Ast.Sm (decl, pos) -> Some (decl, pos) | _ -> None)
      ast
  in
  let creates = ref []
  and terminals = ref []
  and blocks = ref []
  and holds = ref []
  and wakeups = ref []
  and transitions = ref [] in
  List.iter
    (fun (decl, pos) ->
      match decl with
      | Ast.Transition (a, b) ->
          check a pos;
          check b pos;
          transitions := (a, b) :: !transitions
      | Ast.Creation a ->
          check a pos;
          creates := a :: !creates
      | Ast.Terminal a ->
          check a pos;
          terminals := a :: !terminals
      | Ast.Block a ->
          check a pos;
          blocks := a :: !blocks
      | Ast.Block_hold a ->
          check a pos;
          holds := a :: !holds
      | Ast.Wakeup a ->
          check a pos;
          wakeups := a :: !wakeups)
    sm_decls;
  if !creates = [] then err "no creation function (sm_creation) declared";
  (* I^block <> {} <-> B_r (paper SectionIII-B) *)
  let has_block = !blocks <> [] || !holds <> [] in
  if has_block && not model.Model.block then
    err ~pos:model_pos "blocking functions declared but desc_block = false";
  if model.Model.block && not has_block then
    err ~pos:model_pos "desc_block = true but no blocking function declared";
  (* every creation function needs an id source: a desc() argument or a
     desc_data_retval annotation *)
  List.iter
    (fun cf ->
      match List.find_opt (fun f -> f.f_name = cf) funcs with
      | None -> ()
      | Some f ->
          let has_desc_param =
            List.exists (fun p -> p.Ast.pa_attr = Ast.ADesc) f.f_params
          in
          let has_retval =
            match f.f_retval with
            | Some { Ast.ra_kind = `Set; _ } -> true
            | _ -> false
          in
          if not (has_desc_param || has_retval) then
            err ~pos:f.f_pos
              "creation function %s has no id source (desc() argument or \
               desc_data_retval)"
              cf)
    !creates;
  (* parents require a parentage declaration *)
  let parent_user =
    List.find_opt
      (fun f ->
        List.exists
          (fun p ->
            match p.Ast.pa_attr with
            | Ast.AParentDesc | Ast.ADescDataParent -> true
            | _ -> false)
          f.f_params)
      funcs
  in
  (match parent_user with
  | Some f when model.Model.parent = Model.Solo ->
      err ~pos:f.f_pos "parent_desc used but desc_has_parent = solo"
  | _ -> ());
  if !errors <> [] then raise (Semantic_error (List.rev !errors));
  {
    ir_name = name;
    ir_model = model;
    ir_model_pos = model_pos;
    ir_funcs = funcs;
    ir_creates = List.rev !creates;
    ir_terminals = List.rev !terminals;
    ir_blocks = List.rev !blocks;
    ir_block_holds = List.rev !holds;
    ir_wakeups = List.rev !wakeups;
    ir_transitions = List.rev !transitions;
    ir_sm_decls = sm_decls;
  }

let warnings t =
  List.filter_map
    (fun f ->
      if (not (is_replayable t f)) && not (is_transient_block t f.f_name) then
        Some
          (Diag.infof ~code:"SG020"
             ~span:(span ~name:t.ir_name f.f_pos)
             "%s has untracked arguments; its post-state is recovered by \
              state-class collapsing"
             f.f_name)
      else None)
    t.ir_funcs
