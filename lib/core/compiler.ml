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

let compile ~name source =
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

module Sysbuild = Sg_components.Sysbuild

let builtin_names = Sysbuild.names

(* compiled once, at module initialisation: pool tasks on any domain
   read the table, and nothing writes it afterwards *)
let builtins =
  Sysbuild.init (fun name -> compile ~name (List.assoc name Specs.files))

let builtin name = Sysbuild.get builtins name
let builtin_source name = (builtin name).a_source

(* Render the plain header obtained by nil-defining the SuperGlue
   keywords (the paper's cpp-based first stage). *)
let emit_header ir =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "/* interface %s: plain header (SuperGlue keywords erased) */\n"
       ir.Ir.ir_name);
  List.iter
    (fun f ->
      let params =
        f.Ir.f_params
        |> List.map (fun p -> p.Ast.pa_type ^ " " ^ p.Ast.pa_name)
        |> String.concat ", "
      in
      let ret =
        match (f.Ir.f_ret, f.Ir.f_retval) with
        | Some r, _ -> r
        | None, Some { Ast.ra_type; _ } -> ra_type
        | None, None -> "void"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s %s(%s);\n" ret f.Ir.f_name
           (if params = "" then "void" else params)))
    ir.Ir.ir_funcs;
  Buffer.contents buf

let mechanisms a = Model.mechanisms a.a_ir.Ir.ir_model
