(* sgc — the SuperGlue IDL compiler command-line interface.

   Compiles .sgidl interface specifications into stub modules, renders
   the plain header of the paper's first pipeline stage, reports the
   model/mechanism/state-machine diagnostics, and lints specifications
   with the recovery-soundness static analyzer.

   Exit codes: 0 success (lint: no error-severity findings), 1 lint
   found errors, 2 compile error. *)

open Cmdliner
module Compiler = Superglue.Compiler
module Codegen = Superglue.Codegen
module Machine = Superglue.Machine
module Model = Superglue.Model
module Ir = Superglue.Ir
module Diag = Superglue.Diag
module Analysis = Sg_analysis.Analysis
module Json = Sg_util.Json

(* the exit codes every report subcommand (lint, bound, taint, race)
   shares: 0 clean, 1 findings (or an unbounded pair), 2 the compiler
   rejected the input *)
let exit_ok = 0
let exit_findings = 1
let exit_compile_error = 2

let load source builtin =
  match (source, builtin) with
  | Some path, None -> Ok (Compiler.compile_file path)
  | None, Some name -> Ok (Compiler.builtin name)
  | None, None -> Error "give an interface: FILE or --builtin NAME"
  | Some _, Some _ -> Error "give exactly one of FILE or --builtin NAME"

let write_out out text =
  match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc text);
      Printf.eprintf "wrote %s (%d LOC)\n" path (Codegen.loc text)

let file_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Interface specification (.sgidl).")

let builtin_arg =
  Arg.(
    value
    & opt (some (enum (List.map (fun n -> (n, n)) Compiler.builtin_names))) None
    & info [ "builtin" ] ~docv:"NAME"
        ~doc:"Use an embedded system interface instead of a file.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file (default: stdout).")

let print_diag d = Printf.eprintf "%s\n" (Diag.to_string d)

(* A single-artifact command body: load, run, map errors to exit codes.
   CLI misuse (no/both inputs) is a Cmdliner usage error. *)
let handle source builtin f =
  match load source builtin with
  | Error msg -> `Error (true, msg)
  | Ok a -> (
      match f a with
      | () -> `Ok exit_ok
      | exception Compiler.Compile_error ds ->
          List.iter print_diag ds;
          `Ok exit_compile_error)
  | exception Compiler.Compile_error ds ->
      List.iter print_diag ds;
      `Ok exit_compile_error

let compile_cmd =
  let run source builtin out =
    handle source builtin (fun a ->
        List.iter print_diag a.Compiler.a_warnings;
        write_out out (Codegen.emit a))
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Generate the OCaml client and server stub module.")
    Term.(ret (const run $ file_arg $ builtin_arg $ out_arg))

let header_cmd =
  let run source builtin out =
    handle source builtin (fun a ->
        write_out out (Compiler.emit_header a.Compiler.a_ir))
  in
  Cmd.v
    (Cmd.info "header" ~doc:"Render the plain header (SuperGlue keywords erased).")
    Term.(ret (const run $ file_arg $ builtin_arg $ out_arg))

let check_cmd =
  let run source builtin =
    handle source builtin (fun a ->
        let ir = a.Compiler.a_ir in
        Printf.printf "interface %s: %d functions, %d LOC of IDL\n"
          a.Compiler.a_name
          (List.length ir.Ir.ir_funcs)
          (Codegen.loc a.Compiler.a_source);
        Format.printf "model: %a@." Model.pp ir.Ir.ir_model;
        Printf.printf "mechanisms: %s\n" (String.concat " " (Compiler.mechanisms a));
        Printf.printf "templates included: %d of %d\n"
          (List.length (Codegen.included_templates a))
          Superglue.Templates.count;
        List.iter
          (fun st ->
            if st <> "s0" then begin
              let p = Machine.plan a.Compiler.a_machine st in
              Printf.printf "recovery %-28s walk: %s%s\n" st
                (String.concat " -> " p.Machine.pl_path)
                (match p.Machine.pl_restore with
                | [] -> ""
                | r -> "; restore: " ^ String.concat " " r)
            end)
          (Machine.states a.Compiler.a_machine);
        List.iter
          (fun d -> Printf.printf "%s\n" (Diag.to_string d))
          a.Compiler.a_warnings)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Diagnostics: model, mechanisms, recovery plans.")
    Term.(ret (const run $ file_arg $ builtin_arg))

let graph_cmd =
  let run source builtin out =
    handle source builtin (fun a ->
        write_out out (Machine.to_dot a.Compiler.a_machine))
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Render the descriptor state machine with its recovery plans as \
          Graphviz DOT (the Fig 2 diagrams).")
    Term.(ret (const run $ file_arg $ builtin_arg $ out_arg))

(* A report subcommand over FILE... and --builtins: compile every input,
   run [analyze] (given the value of [extra], the subcommand's own
   arguments), print [render] or, with --json, [to_json] on stdout, and
   exit 1 when [findings] holds. On a compile error the diagnostics go
   to stderr, or with --json through [json_of_compile_error] to stdout
   when given, and the exit is 2. *)
let report_cmd name ~doc ~verb ~json_doc ?json_of_compile_error extra
    ~analyze ~render ~to_json ~findings =
  let files_arg =
    Arg.(
      value
      & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Interface specifications (.sgidl).")
  in
  let builtins_flag =
    Arg.(
      value & flag
      & info [ "builtins" ]
          ~doc:
            (Printf.sprintf "Also %s the six embedded system interfaces." verb))
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:(Printf.sprintf "Emit %s as JSON on stdout." json_doc))
  in
  let run files builtins json extra =
    if files = [] && not builtins then
      `Error (true, "give at least one FILE or --builtins")
    else
      match
        List.map Compiler.compile_file files
        @ (if builtins then List.map Compiler.builtin Compiler.builtin_names
           else [])
      with
      | artifacts ->
          let report = analyze extra artifacts in
          if json then print_endline (Json.to_string (to_json report))
          else print_string (render report);
          `Ok (if findings report then exit_findings else exit_ok)
      | exception Compiler.Compile_error ds ->
          (match json_of_compile_error with
          | Some to_json when json ->
              print_endline (Json.to_string (to_json ds))
          | _ -> List.iter print_diag ds);
          `Ok exit_compile_error
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(ret (const run $ files_arg $ builtins_flag $ json_flag $ extra))

let lint_cmd =
  report_cmd "lint"
    ~doc:
      "Run the recovery-soundness static analyzer. Exit 0 if no \
       error-severity finding, 1 if any, 2 on compile errors."
    ~verb:"lint" ~json_doc:"the report"
    ~json_of_compile_error:Analysis.report_to_json (Term.const ())
    ~analyze:(fun () arts -> Analysis.lint arts)
    ~render:(fun ds ->
      String.concat "" (List.map (fun d -> Diag.to_string d ^ "\n") ds)
      ^ Printf.sprintf "%d error(s), %d warning(s), %d info(s)\n"
          (Diag.count Diag.Error ds)
          (Diag.count Diag.Warning ds)
          (Diag.count Diag.Info ds))
    ~to_json:Analysis.report_to_json ~findings:Diag.has_errors

let bound_cmd =
  let module Wcr = Sg_analysis.Wcr in
  let scale_arg =
    Arg.(
      value
      & opt float 1.0
      & info [ "cost-scale" ] ~docv:"F"
          ~doc:"Scale every cost-model constant by $(docv) (sensitivity).")
  in
  report_cmd "bound"
    ~doc:
      "Compute static worst-case recovery-latency bounds for every \
       (crashed service, client interface) pair. Exit 0 if every pair \
       is bounded, 1 if any is unbounded, 2 on compile errors."
    ~verb:"bound" ~json_doc:"the bound table" scale_arg
    ~analyze:(fun scale ->
      let params =
        {
          Wcr.default_params with
          Wcr.p_cost = Sg_kernel.Cost.scale Sg_kernel.Cost.default scale;
        }
      in
      Wcr.analyze ~params)
    ~render:Wcr.render ~to_json:Wcr.to_json
    ~findings:(fun report ->
      (* unbounded pairs (a tracked interface without desc_table_cap,
         SG014) are findings, like lint errors *)
      List.exists (fun p -> p.Wcr.p_bound_ns = None) report.Wcr.r_pairs)

let taint_cmd =
  let module Taint = Sg_analysis.Taint in
  report_cmd "taint"
    ~doc:
      "Classify every (interface edge, field) pair as masked, detected \
       or silent under value corruption, and report SG016-SG019 \
       propagation findings. Exit 0 if no finding, 1 if any, 2 on \
       compile errors."
    ~verb:"analyze" ~json_doc:"the verdict table" (Term.const ())
    ~analyze:(fun () arts -> Taint.analyze arts)
    ~render:Taint.render ~to_json:Taint.report_to_json
    ~findings:(fun r -> Diag.has_errors r.Taint.t_diags)

let race_cmd =
  let module Race = Sg_analysis.Race in
  report_cmd "race"
    ~doc:
      "Classify every (recovery walk, concurrent invocation edge) \
       pair as isolated, serialized or racy over the walk's phase \
       intervals, and report SG021-SG025 interference findings. \
       Exit 0 if no finding, 1 if any, 2 on compile errors."
    ~verb:"analyze" ~json_doc:"the verdict table" (Term.const ())
    ~analyze:(fun () arts -> Race.analyze arts)
    ~render:Race.render ~to_json:Race.report_to_json
    ~findings:(fun r -> Diag.has_errors r.Race.r_diags)

let () =
  let info =
    Cmd.info "sgc" ~version:"1.0"
      ~doc:"SuperGlue IDL compiler for interface-driven fault recovery"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            compile_cmd;
            header_cmd;
            check_cmd;
            graph_cmd;
            lint_cmd;
            bound_cmd;
            taint_cmd;
            race_cmd;
          ]))
