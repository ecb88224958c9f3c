(* The compiler-emitted stub modules, compiled into sg_genstubs by the
   build, must drive the system exactly like the interpreted backend:
   fault-free runs, crash-recovery storms, and a differential comparison
   of virtual-time cost against the interpreter. *)

module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Codegen = Superglue.Codegen
module Compiler = Superglue.Compiler

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Differential check: the generated code and the interpreter are two
   backends of the same compiler and must charge identical virtual time
   and perform identical invocation counts on identical runs. *)
let test_gen_equals_interp iface () =
  let run mode =
    let sys = Storm.run mode iface ~iters:40 ~every:(Some 11) in
    ( Sim.now sys.Sysbuild.sys_sim,
      Sim.invocations sys.Sysbuild.sys_sim,
      Sim.reboots sys.Sysbuild.sys_sim )
  in
  let interp = run Superglue.Stubset.mode in
  let generated = run Sg_genstubs.Gen_stubset.mode in
  let t1, i1, r1 = interp and t2, i2, r2 = generated in
  if interp <> generated then
    Alcotest.failf
      "backends diverge: interp (t=%d, inv=%d, reboots=%d) vs generated (t=%d, inv=%d, reboots=%d)"
      t1 i1 r1 t2 i2 r2

let test_emitted_text_structure () =
  List.iter
    (fun name ->
      let text = Codegen.emit (Compiler.builtin name) in
      List.iter
        (fun fragment ->
          if not (contains text fragment) then
            Alcotest.failf "%s: generated code lacks %S" name fragment)
        [ "let client_config"; "let server_config"; "let track"; "let walk" ])
    Compiler.builtin_names

let test_emitted_loc_exceeds_idl () =
  (* Fig 6(c): a small declarative spec expands by roughly an order of
     magnitude into recovery code *)
  List.iter
    (fun name ->
      let a = Compiler.builtin name in
      let idl = Codegen.loc a.Compiler.a_source in
      let generated = Codegen.loc (Codegen.emit a) in
      if generated < (5 * idl) / 2 then
        Alcotest.failf "%s: %d LOC of IDL only produced %d LOC" name idl generated)
    Compiler.builtin_names

let test_template_catalogue () =
  (* global interfaces include the G0/U0 templates, local ones do not *)
  let names a = List.map fst (Codegen.included_templates a) in
  let evt = names (Compiler.builtin "evt") in
  let lock = names (Compiler.builtin "lock") in
  Alcotest.(check bool) "evt includes g0 upcall" true
    (List.mem "server/g0-upcall-creator" evt);
  Alcotest.(check bool) "lock excludes g0" false
    (List.mem "server/g0-upcall-creator" lock);
  Alcotest.(check bool) "lock includes re-acquire" true
    (List.mem "client/walk/block-hold-reacquire" lock);
  Alcotest.(check bool) "catalogue is non-trivial" true
    (Superglue.Templates.count >= 30)

let () =
  Alcotest.run "sg_genstubs"
    [
      ("faultfree", Storm.faultfree "superglue-gen");
      ( "recovery",
        List.map
          (fun iface ->
            Storm.case "superglue-gen"
              (iface ^ " survives crashes")
              iface ~every:(Some 9))
          Workloads.all_ifaces );
      ( "differential",
        List.map
          (fun iface ->
            Alcotest.test_case
              (iface ^ ": generated == interpreted")
              `Quick
              (test_gen_equals_interp iface))
          Workloads.all_ifaces );
      ( "emission",
        [
          Alcotest.test_case "structure" `Quick test_emitted_text_structure;
          Alcotest.test_case "LOC expansion" `Quick test_emitted_loc_exceeds_idl;
          Alcotest.test_case "template catalogue" `Quick test_template_catalogue;
        ] );
    ]
