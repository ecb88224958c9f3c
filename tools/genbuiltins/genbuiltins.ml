(* Build-time helper: compiles each .sgidl file given on the command
   line with [Sg_frontend.Compile.compile] and prints an OCaml module
   that holds every artifact as a literal, one value per interface
   named after it (the file's basename).

   The literal is made of immutable records, lists, options and strings
   only, so the native compiler emits it as static data: linking it
   costs nothing at process start. A field added to one of the front
   end's types makes the printed module fail to compile, and
   [test_superglue] checks that each linked artifact equals the result
   of compiling its source at run time. *)

open Sg_frontend

let str s = Printf.sprintf "%S" s
let int i = if i < 0 then Printf.sprintf "(%d)" i else string_of_int i
let bool = string_of_bool
let opt f = function None -> "None" | Some x -> "Some (" ^ f x ^ ")"
let list f l = "[" ^ String.concat "; " (List.map f l) ^ "]"
let pair f g (a, b) = "(" ^ f a ^ ", " ^ g b ^ ")"

(* [{ M.f1 = v1; f2 = v2; ... }], the first field qualified by [m] *)
let record m fields =
  "{ "
  ^ String.concat "; "
      (List.mapi
         (fun i (k, v) -> (if i = 0 then "Sg_frontend." ^ m ^ "." ^ k else k) ^ " = " ^ v)
         fields)
  ^ " }"

let ctor m c = "Sg_frontend." ^ m ^ "." ^ c

let pos (p : Ast.pos) = record "Ast" [ ("pos_line", int p.pos_line); ("pos_col", int p.pos_col) ]

let attr (a : Ast.param_attr) =
  ctor "Ast"
    (match a with
    | APlain -> "APlain"
    | ADesc -> "ADesc"
    | ADescData -> "ADescData"
    | AParentDesc -> "AParentDesc"
    | ADescDataParent -> "ADescDataParent"
    | ADescNs -> "ADescNs")

let param (p : Ast.param) =
  record "Ast"
    [
      ("pa_attr", attr p.pa_attr);
      ("pa_type", str p.pa_type);
      ("pa_name", str p.pa_name);
      ("pa_pos", pos p.pa_pos);
    ]

let retval (r : Ast.retval_annot) =
  record "Ast"
    [
      ("ra_kind", match r.ra_kind with `Set -> "`Set" | `Accum -> "`Accum");
      ("ra_type", str r.ra_type);
      ("ra_name", str r.ra_name);
    ]

let sm_decl (d : Ast.sm_decl) =
  match d with
  | Transition (a, b) -> ctor "Ast" "Transition " ^ pair str str (a, b)
  | Creation f -> ctor "Ast" "Creation " ^ str f
  | Terminal f -> ctor "Ast" "Terminal " ^ str f
  | Block f -> ctor "Ast" "Block " ^ str f
  | Block_hold f -> ctor "Ast" "Block_hold " ^ str f
  | Wakeup f -> ctor "Ast" "Wakeup " ^ str f

let func (f : Ir.func) =
  record "Ir"
    [
      ("f_name", str f.f_name);
      ("f_ret", opt str f.f_ret);
      ("f_retval", opt retval f.f_retval);
      ("f_params", list param f.f_params);
      ("f_pos", pos f.f_pos);
    ]

let model (m : Model.t) =
  record "Model"
    [
      ("block", bool m.block);
      ("resc_data", bool m.resc_data);
      ("global", bool m.global);
      ( "parent",
        ctor "Model" (match m.parent with Solo -> "Solo" | Parent -> "Parent" | XCParent -> "XCParent") );
      ("close_children", bool m.close_children);
      ("close_remove", bool m.close_remove);
      ("desc_data", bool m.desc_data);
      ("table_cap", opt int m.table_cap);
    ]

let ir (t : Ir.t) =
  record "Ir"
    [
      ("ir_name", str t.ir_name);
      ("ir_model", model t.ir_model);
      ("ir_model_pos", pos t.ir_model_pos);
      ("ir_funcs", list func t.ir_funcs);
      ("ir_creates", list str t.ir_creates);
      ("ir_terminals", list str t.ir_terminals);
      ("ir_blocks", list str t.ir_blocks);
      ("ir_block_holds", list str t.ir_block_holds);
      ("ir_wakeups", list str t.ir_wakeups);
      ("ir_transitions", list (pair str str) t.ir_transitions);
      ("ir_sm_decls", list (pair sm_decl pos) t.ir_sm_decls);
    ]

let plan (p : Machine.plan) =
  record "Machine" [ ("pl_path", list str p.pl_path); ("pl_restore", list str p.pl_restore) ]

let edge (e : Machine.edge) =
  record "Machine" [ ("e_from", str e.e_from); ("e_fn", str e.e_fn); ("e_to", str e.e_to) ]

(* [ir_var] names the interface's IR, printed once and shared *)
let machine ir_var (m : Machine.t) =
  record "Machine"
    [
      ("m_ir", ir_var);
      ("m_states", list str m.m_states);
      ("m_edges", list edge m.m_edges);
      ("m_class", list (pair str str) m.m_class);
      ("m_sources", list (pair str (list str)) m.m_sources);
      ("m_plans", list (pair str plan) m.m_plans);
    ]

let fn (p : Stubplan.fn) =
  record "Stubplan"
    [
      ("fn_params", list param p.fn_params);
      ("fn_desc", opt int p.fn_desc);
      ("fn_parent", opt int p.fn_parent);
      ("fn_ns", opt int p.fn_ns);
      ("fn_create", bool p.fn_create);
      ("fn_terminal", bool p.fn_terminal);
      ("fn_virtual_create", bool p.fn_virtual_create);
      ("fn_after", str p.fn_after);
      ("fn_meta", list (pair int str) p.fn_meta);
      ("fn_retval", opt retval p.fn_retval);
      ("fn_from", list str p.fn_from);
    ]

let diag (d : Diag.t) =
  let span (s : Diag.span) =
    record "Diag" [ ("sp_file", str s.sp_file); ("sp_line", int s.sp_line); ("sp_col", int s.sp_col) ]
  in
  record "Diag"
    [
      ("d_code", str d.d_code);
      ( "d_severity",
        ctor "Diag" (match d.d_severity with Error -> "Error" | Warning -> "Warning" | Info -> "Info") );
      ("d_span", opt span d.d_span);
      ("d_message", str d.d_message);
    ]

let artifact (a : Compile.artifact) =
  let ir_var = a.a_name ^ "_ir" in
  Printf.printf "let %s = %s\n\n" ir_var (ir a.a_ir);
  Printf.printf "let %s : Sg_frontend.Compile.artifact =\n  %s\n\n" a.a_name
    (record "Compile"
       [
         ("a_name", str a.a_name);
         ("a_source", str a.a_source);
         ("a_ir", ir_var);
         ("a_machine", machine ir_var a.a_machine);
         ("a_stubplan", record "Stubplan" [ ("fns", list (pair str fn) a.a_stubplan.fns) ]);
         ("a_warnings", list diag a.a_warnings);
       ])

let () =
  print_string "(* Generated by tools/genbuiltins from the .sgidl files - do not edit. *)\n\n";
  List.iter (fun path -> artifact (Compile.compile_file path)) (List.tl (Array.to_list Sys.argv))
