(* Tests for the SuperGlue IDL compiler: lexer/parser, semantic analysis,
   state-machine recovery plans, and the interpreted stubs driving the
   full system — including crash-recovery runs for every service and a
   differential comparison against the hand-written C3 stubs. *)

module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Lexer = Superglue.Lexer
module Parser = Superglue.Parser
module Ast = Superglue.Ast
module Ir = Superglue.Ir
module Model = Superglue.Model
module Machine = Superglue.Machine
module Compiler = Superglue.Compiler
module Stubset = Superglue.Stubset

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- lexer --- *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "foo(bar, baz); /* gone */ x = {y} // c\n*" in
  let kinds = List.map (fun t -> t.Lexer.tok) toks in
  Alcotest.(check int) "token count" 14 (List.length kinds);
  Alcotest.(check bool) "comment stripped" true
    (not (List.mem (Lexer.Ident "gone") kinds));
  Alcotest.(check bool) "ends with eof" true
    (List.nth kinds (List.length kinds - 1) = Lexer.Eof)

let test_lexer_lines () =
  let toks = Lexer.tokenize "a\nb\n  c" in
  let pos_of name =
    List.find_map
      (fun t ->
        if t.Lexer.tok = Lexer.Ident name then Some (t.Lexer.line, t.Lexer.col)
        else None)
      toks
  in
  Alcotest.(check (option (pair int int))) "position of c" (Some (3, 3))
    (pos_of "c")

let test_lexer_columns_survive_comments () =
  (* comments are blanked, not removed, so columns stay true *)
  let toks = Lexer.tokenize "/* pad */ x" in
  let col =
    List.find_map
      (fun t -> if t.Lexer.tok = Lexer.Ident "x" then Some t.Lexer.col else None)
      toks
  in
  Alcotest.(check (option int)) "col of x" (Some 11) col

let test_lexer_error () =
  match Lexer.tokenize "foo $ bar" with
  | _ -> Alcotest.fail "expected lexer error"
  | exception Lexer.Lex_error { line = 1; col = 5; _ } -> ()
  | exception Lexer.Lex_error { line; col; _ } ->
      Alcotest.failf "error at %d:%d, expected 1:5" line col

(* --- parser --- *)

let test_parse_builtin_specs () =
  List.iter
    (fun name ->
      let ast = Parser.parse (Compiler.builtin_source name) in
      let n_fns =
        List.length (List.filter (function Ast.Fn _ -> true | _ -> false) ast)
      in
      if n_fns < 3 then Alcotest.failf "%s: only %d functions parsed" name n_fns)
    Compiler.builtin_names

(* The six builtins are linked as the literals tools/genbuiltins wrote
   at build time. Each must equal what the one front end makes of its
   source now: IR, state machine, stub plan and warnings, field for
   field. (dune runtest runs in test/; the fallback serves dune exec
   from the root.) *)
let test_linked_builtins_equal_compiled () =
  List.iter
    (fun name ->
      let path =
        let p = Printf.sprintf "../idl/%s.sgidl" name in
        if Sys.file_exists p then p else Printf.sprintf "idl/%s.sgidl" name
      in
      let linked = Compiler.builtin name and compiled = Compiler.compile_file path in
      Alcotest.(check string) (name ^ ": source") compiled.Compiler.a_source linked.Compiler.a_source;
      Alcotest.(check bool) (name ^ ": IR") true (linked.Compiler.a_ir = compiled.Compiler.a_ir);
      Alcotest.(check bool)
        (name ^ ": state machine") true
        (linked.Compiler.a_machine = compiled.Compiler.a_machine);
      Alcotest.(check bool)
        (name ^ ": stub plan") true
        (linked.Compiler.a_stubplan = compiled.Compiler.a_stubplan);
      Alcotest.(check bool) (name ^ ": whole artifact") true (linked = compiled))
    Compiler.builtin_names

let test_parse_fig3_shape () =
  (* the paper's Fig 3 example, verbatim structure *)
  let ast = Parser.parse (Compiler.builtin_source "evt") in
  let fns = List.filter_map (function Ast.Fn f -> Some f | _ -> None) ast in
  let split = List.find (fun f -> f.Ast.fd_name = "evt_split") fns in
  Alcotest.(check int) "evt_split arity" 3 (List.length split.Ast.fd_params);
  (match split.Ast.fd_retval with
  | Some { Ast.ra_name = "evtid"; ra_kind = `Set; _ } -> ()
  | _ -> Alcotest.fail "evt_split should carry desc_data_retval(long, evtid)");
  let attrs = List.map (fun p -> p.Ast.pa_attr) split.Ast.fd_params in
  Alcotest.(check bool) "second param is desc_data(parent_desc(..))" true
    (List.nth attrs 1 = Ast.ADescDataParent);
  let wait = List.find (fun f -> f.Ast.fd_name = "evt_wait") fns in
  Alcotest.(check bool) "evt_wait desc param" true
    ((List.nth wait.Ast.fd_params 1).Ast.pa_attr = Ast.ADesc)

let test_parse_pointer_type () =
  let ast = Parser.parse "service_global_info = { desc_block = false };\nsm_creation(f);\ndesc_data_retval(long, id)\nf(desc_data(char *name));" in
  let fns = List.filter_map (function Ast.Fn f -> Some f | _ -> None) ast in
  match fns with
  | [ f ] ->
      let p = List.hd f.Ast.fd_params in
      Alcotest.(check string) "type" "char *" p.Ast.pa_type;
      Alcotest.(check string) "name" "name" p.Ast.pa_name
  | _ -> Alcotest.fail "expected one function"

let test_parse_error_reported () =
  match Parser.parse "sm_creation(;" with
  | _ -> Alcotest.fail "expected parse error"
  | exception Parser.Parse_error _ -> ()

(* --- semantic analysis --- *)

let test_ir_models () =
  let ir name = (Compiler.builtin name).Compiler.a_ir in
  Alcotest.(check bool) "evt is global" true (ir "evt").Ir.ir_model.Model.global;
  Alcotest.(check bool) "fs keeps closed tracking (Y_dr)" false
    (ir "fs").Ir.ir_model.Model.close_remove;
  Alcotest.(check bool) "mm closes children (C_dr)" true
    (ir "mm").Ir.ir_model.Model.close_children;
  Alcotest.(check bool) "mm does not block" false (ir "mm").Ir.ir_model.Model.block;
  Alcotest.(check bool) "sched blocks" true (ir "sched").Ir.ir_model.Model.block

let test_ir_mechanisms () =
  (* the event manager needs every mechanism except D0 (paper SectionV-C) *)
  let mechs = Compiler.mechanisms (Compiler.builtin "evt") in
  List.iter
    (fun m -> Alcotest.(check bool) ("evt has " ^ m) true (List.mem m mechs))
    [ "R0"; "T0"; "T1"; "D1"; "G0"; "U0" ];
  Alcotest.(check bool) "evt lacks D0" false (List.mem "D0" mechs);
  let lock_mechs = Compiler.mechanisms (Compiler.builtin "lock") in
  Alcotest.(check (list string)) "lock: T0, R0, T1 only" [ "R0"; "T1"; "T0" ]
    lock_mechs

let test_ir_rejects_undeclared () =
  match
    Compiler.compile ~name:"bad"
      "service_global_info = { desc_block = false };\nsm_creation(nope);\nlong f(desc(long x));"
  with
  | _ -> Alcotest.fail "expected semantic error"
  | exception Compiler.Compile_error ds ->
      Alcotest.(check bool) "mentions nope" true
        (contains (Compiler.error_to_string ds) "nope")

let test_ir_rejects_block_mismatch () =
  match
    Compiler.compile ~name:"bad"
      "service_global_info = { desc_block = true };\nsm_creation(f);\ndesc_data_retval(long, id)\nf();"
  with
  | _ -> Alcotest.fail "expected semantic error"
  | exception Compiler.Compile_error _ -> ()

let test_ir_rejects_idless_create () =
  match
    Compiler.compile ~name:"bad"
      "service_global_info = { desc_block = false };\nsm_creation(f);\nint f(int x);"
  with
  | _ -> Alcotest.fail "expected semantic error"
  | exception Compiler.Compile_error _ -> ()

(* --- state machine recovery plans --- *)

let plan name state =
  let a = Compiler.builtin name in
  Machine.plan a.Compiler.a_machine state

let check_plan name state expected_path expected_restore =
  let p = plan name state in
  Alcotest.(check (list string))
    (Printf.sprintf "%s walk for %s" name state)
    expected_path p.Machine.pl_path;
  Alcotest.(check (list string))
    (Printf.sprintf "%s restore for %s" name state)
    expected_restore p.Machine.pl_restore

let test_plans_sched () =
  check_plan "sched" "after:sched_create" [ "sched_create" ] [];
  (* a blocked state recovers by re-registration only: the diverted
     thread re-blocks through its own redo (Fig 2(a)) *)
  check_plan "sched" "after:sched_blk" [ "sched_create" ] [];
  (* a delivered-but-unconsumed wakeup is state: the walk re-latches it,
     or the thread's next block would strand forever *)
  check_plan "sched" "after:sched_wakeup" [ "sched_create"; "sched_wakeup" ] []

let test_plans_lock () =
  check_plan "lock" "after:lock_alloc" [ "lock_alloc" ] [];
  (* a taken lock is re-acquired so recovered threads re-contend *)
  check_plan "lock" "after:lock_take" [ "lock_alloc"; "lock_take" ] [];
  check_plan "lock" "after:lock_release"
    [ "lock_alloc"; "lock_take"; "lock_release" ]
    []

let test_plans_fs () =
  (* read/write/seek states collapse; the offset is restored with lseek
     — the paper's "open and lseek" walk (Fig 2(b)) *)
  check_plan "fs" "after:tsplit" [ "tsplit" ] [ "tlseek" ];
  check_plan "fs" "after:twrite" [ "tsplit" ] [ "tlseek" ];
  check_plan "fs" "after:tread" [ "tsplit" ] [ "tlseek" ]

let test_plans_evt () =
  check_plan "evt" "after:evt_split" [ "evt_split" ] [];
  check_plan "evt" "after:evt_wait" [ "evt_split" ] [];
  check_plan "evt" "after:evt_trigger" [ "evt_split" ] []

let test_plans_mm () =
  check_plan "mm" "after:mman_get_page" [ "mman_get_page" ] [];
  check_plan "mm" "after:mman_alias_page" [ "mman_alias_page" ] []

let test_sigma_fault_detection () =
  let a = Compiler.builtin "lock" in
  let m = a.Compiler.a_machine in
  Alcotest.(check bool) "valid: alloc then take" true
    (Machine.sigma m "after:lock_alloc" "lock_take" <> None);
  Alcotest.(check bool) "invalid: alloc then release" true
    (Machine.sigma m "after:lock_alloc" "lock_release" = None)

(* The interpreted stubs ask the artifact's stub plan, resolved once at
   compile time, what they used to ask the IR and the machine on every
   call. The two must agree on every declared function and on a name
   the interface does not declare, for the builtins and for every fs
   mutant that compiles. *)
let check_stubplan (a : Compiler.artifact) =
  let ir = a.Compiler.a_ir and m = a.Compiler.a_machine in
  let module P = Superglue.Stubplan in
  let names = "sg_undeclared" :: List.map (fun f -> f.Ir.f_name) ir.Ir.ir_funcs in
  List.iter
    (fun fn ->
      let where what = Printf.sprintf "%s.%s: %s" a.Compiler.a_name fn what in
      let p = P.find a.Compiler.a_stubplan fn in
      let get f default = match p with Some p -> f p | None -> default in
      let desc = Ir.desc_arg_index ir fn and create = Ir.is_create ir fn in
      Alcotest.(check (option int))
        (where "desc") desc
        (get (fun p -> p.P.fn_desc) None);
      Alcotest.(check (option int))
        (where "parent")
        (Option.bind (Ir.func ir fn) Ir.parent_arg_index)
        (get (fun p -> p.P.fn_parent) None);
      Alcotest.(check bool)
        (where "create") create
        (get (fun p -> p.P.fn_create) false);
      Alcotest.(check bool)
        (where "terminal") (Ir.is_terminal ir fn)
        (get (fun p -> p.P.fn_terminal) false);
      Alcotest.(check bool)
        (where "virtual create")
        ((not ir.Ir.ir_model.Model.global) && create && desc = None)
        (get (fun p -> p.P.fn_virtual_create) false);
      Alcotest.(check (list string))
        (where "allowed from")
        (List.sort compare
           (List.filter
              (fun st -> Machine.sigma m st fn <> None)
              (Machine.states m)))
        (List.sort compare (get (fun p -> p.P.fn_from) [])))
    names

let test_stubplan_matches_ir () =
  List.iter
    (fun name -> check_stubplan (Compiler.builtin name))
    Compiler.builtin_names;
  let compiled =
    List.filter_map
      (fun m ->
        if m.Sg_analysis.Mutate.m_iface <> "fs" then None
        else
          match
            Compiler.compile ~name:m.Sg_analysis.Mutate.m_iface
              m.Sg_analysis.Mutate.m_source
          with
          | a -> Some a
          | exception Compiler.Compile_error _ -> None)
      (Sg_analysis.Mutate.builtin_mutants ())
  in
  Alcotest.(check bool) "some fs mutants compile" true (List.length compiled > 3);
  List.iter check_stubplan compiled

let test_emit_header () =
  let h = Compiler.emit_header (Compiler.builtin "evt").Compiler.a_ir in
  Alcotest.(check bool) "prototype survives" true
    (contains h "long evt_wait(componentid_t compid, long evtid);");
  Alcotest.(check bool) "keywords erased" true (not (contains h "desc_data"))

(* --- property: recovery plans are valid sigma paths --- *)

let prop_plans_valid =
  (* every recovery plan must be a valid sigma path from s0 ending in a
     state from which the tracked state remains reachable: either we are
     already in its recovery-equivalence class, or the remaining
     transitions (a transient block, an untracked-argument call) are the
     diverted thread's own redo to re-execute *)
  QCheck.Test.make ~name:"recovery plans follow sigma toward the target"
    ~count:60
    QCheck.(int_bound 5)
    (fun i ->
      let name = List.nth Compiler.builtin_names i in
      let a = Compiler.builtin name in
      let ir = a.Compiler.a_ir in
      let m = a.Compiler.a_machine in
      let fns = List.map (fun f -> f.Superglue.Ir.f_name) ir.Superglue.Ir.ir_funcs in
      let reachable from target =
        let seen = Hashtbl.create 8 in
        let rec go s =
          s = target || Machine.same_class m s target
          || if Hashtbl.mem seen s then false
             else begin
               Hashtbl.replace seen s ();
               List.exists
                 (fun fn ->
                   match Machine.sigma m s fn with
                   | Some s' -> go s'
                   | None -> false)
                 fns
             end
        in
        go from
      in
      List.for_all
        (fun st ->
          let p = Machine.plan m st in
          let final =
            List.fold_left
              (fun cur fn ->
                match cur with
                | None -> None
                | Some s -> Machine.sigma m s fn)
              (Some "s0") p.Machine.pl_path
          in
          match final with
          | None -> false
          | Some s -> st = "s0" || reachable s st)
        (Machine.states m))

(* --- the interpreted stubs drive the full system --- *)

let test_superglue_dearer_than_c3 () =
  (* Fig 6(a): the interpreted SuperGlue stubs cost slightly more per
     tracking action than the hand-specialized C3 ones *)
  let elapsed mode =
    Sim.now (Storm.run mode "fs" ~iters:50 ~every:None).Sysbuild.sys_sim
  in
  let t_c3 = elapsed (Sysbuild.Stubbed Sysbuild.c3_stubset) in
  let t_sg = elapsed Stubset.mode in
  if t_sg <= t_c3 then
    Alcotest.failf "superglue (%d ns) should cost more than c3 (%d ns)" t_sg t_c3

let () =
  Alcotest.run "superglue"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basic;
          Alcotest.test_case "line numbers" `Quick test_lexer_lines;
          Alcotest.test_case "columns survive comments" `Quick
            test_lexer_columns_survive_comments;
          Alcotest.test_case "illegal char" `Quick test_lexer_error;
        ] );
      ( "parser",
        [
          Alcotest.test_case "builtin specs" `Quick test_parse_builtin_specs;
          Alcotest.test_case "linked builtins equal compiled sources" `Quick
            test_linked_builtins_equal_compiled;
          Alcotest.test_case "fig3 example shape" `Quick test_parse_fig3_shape;
          Alcotest.test_case "pointer types" `Quick test_parse_pointer_type;
          Alcotest.test_case "errors located" `Quick test_parse_error_reported;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "models extracted" `Quick test_ir_models;
          Alcotest.test_case "mechanism selection" `Quick test_ir_mechanisms;
          Alcotest.test_case "rejects undeclared fn" `Quick test_ir_rejects_undeclared;
          Alcotest.test_case "rejects block mismatch" `Quick test_ir_rejects_block_mismatch;
          Alcotest.test_case "rejects id-less create" `Quick test_ir_rejects_idless_create;
          Alcotest.test_case "plain header emission" `Quick test_emit_header;
        ] );
      ( "state-machine",
        [
          Alcotest.test_case "sched plans" `Quick test_plans_sched;
          Alcotest.test_case "lock plans" `Quick test_plans_lock;
          Alcotest.test_case "fs plans (open+lseek)" `Quick test_plans_fs;
          Alcotest.test_case "evt plans" `Quick test_plans_evt;
          Alcotest.test_case "mm plans" `Quick test_plans_mm;
          Alcotest.test_case "sigma fault detection" `Quick test_sigma_fault_detection;
          Alcotest.test_case "stub plan agrees with the IR" `Quick
            test_stubplan_matches_ir;
          QCheck_alcotest.to_alcotest prop_plans_valid;
        ] );
      ("faultfree", Storm.faultfree "superglue");
      ("recovery", Storm.storms "superglue" [ 7; 23 ]);
      ( "comparison",
        [
          Alcotest.test_case "superglue dearer than c3" `Quick
            test_superglue_dearer_than_c3;
        ] );
    ]
