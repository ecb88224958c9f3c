exception Parse_error of { line : int; col : int; message : string }

type cursor = { mutable toks : Lexer.located list }

let peek c =
  match c.toks with
  | [] -> { Lexer.tok = Lexer.Eof; line = 0; col = 0 }
  | t :: _ -> t

let advance c = match c.toks with [] -> () | _ :: rest -> c.toks <- rest

let pos_of (t : Lexer.located) =
  { Ast.pos_line = t.Lexer.line; pos_col = t.Lexer.col }

let fail (t : Lexer.located) fmt =
  Printf.ksprintf
    (fun message ->
      raise (Parse_error { line = t.Lexer.line; col = t.Lexer.col; message }))
    fmt

let expect c tok =
  let t = peek c in
  if t.Lexer.tok = tok then advance c
  else
    fail t "expected %s but found %s" (Lexer.token_to_string tok)
      (Lexer.token_to_string t.Lexer.tok)

let expect_ident c =
  let t = peek c in
  match t.Lexer.tok with
  | Lexer.Ident s ->
      advance c;
      s
  | tok -> fail t "expected identifier but found %s" (Lexer.token_to_string tok)

(* A C-ish type: one or more identifiers followed by optional stars; the
   final identifier is the declared name. *)
let parse_typed_name c =
  let rec collect acc =
    let t = peek c in
    match t.Lexer.tok with
    | Lexer.Ident s ->
        advance c;
        collect (s :: acc)
    | Lexer.Star ->
        advance c;
        collect ("*" :: acc)
    | _ -> List.rev acc
  in
  let parts = collect [] in
  match List.rev parts with
  | name :: rev_ty when name <> "*" ->
      let ty = String.concat " " (List.rev rev_ty) in
      (ty, name)
  | _ -> fail (peek c) "expected a type and a name"

(* A model-block value: an identifier (true, solo, ...) or a decimal
   literal (desc_table_cap). *)
let expect_value c =
  let t = peek c in
  match t.Lexer.tok with
  | Lexer.Ident s | Lexer.Number s ->
      advance c;
      s
  | tok -> fail t "expected a value but found %s" (Lexer.token_to_string tok)

let parse_global_body c =
  expect c Lexer.Lbrace;
  let rec kvs acc =
    let t = peek c in
    match t.Lexer.tok with
    | Lexer.Rbrace ->
        advance c;
        List.rev acc
    | Lexer.Ident key ->
        advance c;
        expect c Lexer.Equals;
        let value = expect_value c in
        let kv = { Ast.gk_key = key; gk_value = value; gk_pos = pos_of t } in
        (match (peek c).Lexer.tok with
        | Lexer.Comma -> advance c
        | _ -> ());
        kvs (kv :: acc)
    | tok -> fail t "unexpected %s in service_global_info" (Lexer.token_to_string tok)
  in
  let body = kvs [] in
  expect c Lexer.Semicolon;
  body

let parse_sm c keyword kw_tok =
  expect c Lexer.Lparen;
  let a = expect_ident c in
  let decl =
    match keyword with
    | "sm_transition" ->
        expect c Lexer.Comma;
        let b = expect_ident c in
        Ast.Transition (a, b)
    | "sm_creation" -> Ast.Creation a
    | "sm_terminal" -> Ast.Terminal a
    | "sm_block" -> Ast.Block a
    | "sm_block_hold" -> Ast.Block_hold a
    | "sm_wakeup" -> Ast.Wakeup a
    | kw -> fail kw_tok "unknown state-machine declaration %s" kw
  in
  expect c Lexer.Rparen;
  expect c Lexer.Semicolon;
  (decl, pos_of kw_tok)

(* A bare type in an annotation: identifiers and stars up to the comma. *)
let parse_inner_type c =
  let rec collect acc =
    let t = peek c in
    match t.Lexer.tok with
    | Lexer.Ident s ->
        advance c;
        collect (s :: acc)
    | Lexer.Star ->
        advance c;
        collect ("*" :: acc)
    | _ -> List.rev acc
  in
  String.concat " " (collect [])

let parse_retval_annot c kind =
  expect c Lexer.Lparen;
  let ty = parse_inner_type c in
  expect c Lexer.Comma;
  let name = expect_ident c in
  expect c Lexer.Rparen;
  { Ast.ra_kind = kind; ra_type = ty; ra_name = name }

let parse_param c =
  let t = peek c in
  let pos = pos_of t in
  match t.Lexer.tok with
  | Lexer.Ident "desc" ->
      advance c;
      expect c Lexer.Lparen;
      let ty, name = parse_typed_name c in
      expect c Lexer.Rparen;
      { Ast.pa_attr = Ast.ADesc; pa_type = ty; pa_name = name; pa_pos = pos }
  | Lexer.Ident "parent_desc" ->
      advance c;
      expect c Lexer.Lparen;
      let ty, name = parse_typed_name c in
      expect c Lexer.Rparen;
      { Ast.pa_attr = Ast.AParentDesc; pa_type = ty; pa_name = name; pa_pos = pos }
  | Lexer.Ident "desc_ns" ->
      advance c;
      expect c Lexer.Lparen;
      let ty, name = parse_typed_name c in
      expect c Lexer.Rparen;
      { Ast.pa_attr = Ast.ADescNs; pa_type = ty; pa_name = name; pa_pos = pos }
  | Lexer.Ident "desc_data" -> (
      advance c;
      expect c Lexer.Lparen;
      match (peek c).Lexer.tok with
      | Lexer.Ident "parent_desc" ->
          advance c;
          expect c Lexer.Lparen;
          let ty, name = parse_typed_name c in
          expect c Lexer.Rparen;
          expect c Lexer.Rparen;
          {
            Ast.pa_attr = Ast.ADescDataParent;
            pa_type = ty;
            pa_name = name;
            pa_pos = pos;
          }
      | _ ->
          let ty, name = parse_typed_name c in
          expect c Lexer.Rparen;
          { Ast.pa_attr = Ast.ADescData; pa_type = ty; pa_name = name; pa_pos = pos })
  | Lexer.Ident _ ->
      let ty, name = parse_typed_name c in
      { Ast.pa_attr = Ast.APlain; pa_type = ty; pa_name = name; pa_pos = pos }
  | tok -> fail t "unexpected %s in parameter list" (Lexer.token_to_string tok)

let parse_params c =
  match (peek c).Lexer.tok with
  | Lexer.Rparen -> []
  | _ ->
      let rec go acc =
        let p = parse_param c in
        match (peek c).Lexer.tok with
        | Lexer.Comma ->
            advance c;
            go (p :: acc)
        | _ -> List.rev (p :: acc)
      in
      go []

(* A function declaration: an optional return type, the function name,
   then the parameter list. The tokens up to the opening parenthesis are
   type parts; the last identifier among them is the function name. *)
let parse_fn c retval start_tok =
  let rec collect acc =
    let t = peek c in
    match t.Lexer.tok with
    | Lexer.Ident s ->
        advance c;
        collect (s :: acc)
    | Lexer.Star ->
        advance c;
        collect ("*" :: acc)
    | Lexer.Lparen -> List.rev acc
    | tok -> fail t "unexpected %s in declaration" (Lexer.token_to_string tok)
  in
  let parts = collect [] in
  let name, ret =
    match List.rev parts with
    | name :: rev_ty when name <> "*" ->
        ( name,
          if rev_ty = [] then None
          else Some (String.concat " " (List.rev rev_ty)) )
    | _ -> fail start_tok "expected a function name"
  in
  expect c Lexer.Lparen;
  let params = parse_params c in
  expect c Lexer.Rparen;
  expect c Lexer.Semicolon;
  {
    Ast.fd_ret = ret;
    fd_name = name;
    fd_params = params;
    fd_retval = retval;
    fd_pos = pos_of start_tok;
  }

let parse src =
  let c = { toks = Lexer.tokenize src } in
  let rec items acc pending_retval =
    let t = peek c in
    match t.Lexer.tok with
    | Lexer.Eof ->
        (match pending_retval with
        | Some _ -> fail t "dangling desc_data_retval annotation"
        | None -> ());
        List.rev acc
    | Lexer.Ident "service_global_info" ->
        advance c;
        expect c Lexer.Equals;
        let body = parse_global_body c in
        items (Ast.Global body :: acc) pending_retval
    | Lexer.Ident
        (("sm_transition" | "sm_creation" | "sm_terminal" | "sm_block"
         | "sm_block_hold" | "sm_wakeup") as kw) ->
        advance c;
        let decl, pos = parse_sm c kw t in
        items (Ast.Sm (decl, pos) :: acc) pending_retval
    | Lexer.Ident "desc_data_retval" ->
        advance c;
        let annot = parse_retval_annot c `Set in
        items acc (Some annot)
    | Lexer.Ident "desc_data_accum" ->
        advance c;
        let annot = parse_retval_annot c `Accum in
        items acc (Some annot)
    | Lexer.Ident _ ->
        let fn = parse_fn c pending_retval t in
        items (Ast.Fn fn :: acc) None
    | tok -> fail t "unexpected %s at top level" (Lexer.token_to_string tok)
  in
  items [] None
