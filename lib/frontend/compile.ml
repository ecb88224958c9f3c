type artifact = {
  a_name : string;
  a_source : string;
  a_ir : Ir.t;
  a_machine : Machine.t;
  a_stubplan : Stubplan.t;
  a_warnings : Diag.t list;
}

exception Compile_error of Diag.t list

let error_to_string ds = String.concat "; " (List.map Diag.to_string ds)

let runs = Atomic.make 0
let compilations () = Atomic.get runs

let compile ~name source =
  Atomic.incr runs;
  let fail ~code ~line ~col fmt =
    Printf.ksprintf
      (fun m ->
        let span = { Diag.sp_file = name; sp_line = line; sp_col = col } in
        raise (Compile_error [ Diag.make ~span ~code ~severity:Diag.Error m ]))
      fmt
  in
  let ast =
    try Parser.parse source with
    | Lexer.Lex_error { line; col; message } ->
        fail ~code:"SG900" ~line ~col "%s" message
    | Parser.Parse_error { line; col; message } ->
        fail ~code:"SG901" ~line ~col "%s" message
  in
  let ir =
    try Ir.of_ast ~name ast
    with Ir.Semantic_error ds -> raise (Compile_error ds)
  in
  let machine = Machine.build ir in
  {
    a_name = name;
    a_source = source;
    a_ir = ir;
    a_machine = machine;
    a_stubplan = Stubplan.build ir machine;
    a_warnings = Ir.warnings ir;
  }

let compile_file path =
  let ic = open_in_bin path in
  let source =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  compile ~name:Filename.(remove_extension (basename path)) source
