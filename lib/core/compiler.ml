include Compile

module Sysbuild = Sg_components.Sysbuild

let builtin_names = Sysbuild.names

(* compiled at build time (tools/genbuiltins) and linked as static
   data: nothing runs at start or on lookup, and pool tasks on any
   domain read the same immutable values *)
let builtins =
  {
    Sysbuild.sched = Builtins.sched;
    mm = Builtins.mm;
    fs = Builtins.fs;
    lock = Builtins.lock;
    evt = Builtins.evt;
    timer = Builtins.timer;
  }

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
