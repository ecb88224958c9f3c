(* Validation of the sg_analysis recovery-soundness analyzer.

   Four layers: (1) golden snapshot — the six builtin interfaces and
   the idl/*.sgidl sources lint clean apart from four known SG020
   state-class-collapsing notes; (2) the cross-interface SG012 pass on
   the real system wiring and on injected violating configurations;
   (3) the seeded-mutant corpus — every analyzer rule catches at least
   one mutant, measured against the pristine baseline; (4) the JSON
   report round-trips, and a fixture corpus of small specifications
   each carrying an "expect:" header triggers the rule it names. *)

module Compiler = Superglue.Compiler
module Diag = Superglue.Diag
module Analysis = Sg_analysis.Analysis
module Sysgraph = Sg_analysis.Sysgraph
module Wcr = Sg_analysis.Wcr
module Mutate = Sg_analysis.Mutate
module Taint = Sg_analysis.Taint
module Race = Sg_analysis.Race
module Json = Sg_util.Json
module Cost = Sg_kernel.Cost

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let pristine () = List.map Compiler.builtin Compiler.builtin_names

let count_code code ds =
  List.length (List.filter (fun d -> d.Diag.d_code = code) ds)

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Diag.d_code) ds)

(* ---------- golden snapshot of the pristine system ---------- *)

(* The only findings on the six shipped interfaces are the state-class
   collapsing notes for the four functions with untracked plain
   arguments (paper Fig 3: evt_trigger/evt_free; fs: tread/twrite). *)
let expected_infos =
  [
    ("evt", 31, "evt_trigger");
    ("evt", 32, "evt_free");
    ("fs", 43, "tread");
    ("fs", 45, "twrite");
  ]

let test_pristine_builtins () =
  let ds = Analysis.lint (pristine ()) in
  Alcotest.(check int) "no errors" 0 (Diag.count Diag.Error ds);
  Alcotest.(check int) "no warnings" 0 (Diag.count Diag.Warning ds);
  Alcotest.(check int) "four infos" 4 (Diag.count Diag.Info ds);
  List.iter2
    (fun d (file, line, fn) ->
      Alcotest.(check string) "code" "SG020" d.Diag.d_code;
      (match d.Diag.d_span with
      | Some sp ->
          Alcotest.(check string) "file" file sp.Diag.sp_file;
          Alcotest.(check int) "line" line sp.Diag.sp_line;
          Alcotest.(check int) "col" 1 sp.Diag.sp_col
      | None -> Alcotest.failf "SG020 for %s lost its span" fn);
      if not (contains d.Diag.d_message fn) then
        Alcotest.failf "info %s does not mention %s" d.Diag.d_message fn)
    ds expected_infos

let test_pristine_analyze_empty () =
  (* analyze proper (without the compilation warnings) finds nothing *)
  List.iter
    (fun a ->
      Alcotest.(check (list string))
        (a.Compiler.a_name ^ " analyze")
        [] (List.map Diag.to_string (Analysis.analyze a)))
    (pristine ())

(* dune runtest runs with cwd = test/; fall back to repo-root-relative
   paths so `dune exec test/test_analysis.exe` works too *)
let locate p alt = if Sys.file_exists p then p else alt

let idl_files =
  [ "evt"; "fs"; "lock"; "mm"; "sched"; "timer" ]
  |> List.map (fun n ->
         locate
           (Printf.sprintf "../idl/%s.sgidl" n)
           (Printf.sprintf "idl/%s.sgidl" n))

let test_idl_files_lint_clean () =
  let arts = List.map Compiler.compile_file idl_files in
  let ds = Analysis.lint arts in
  Alcotest.(check int) "no errors" 0 (Diag.count Diag.Error ds);
  Alcotest.(check int) "no warnings" 0 (Diag.count Diag.Warning ds);
  Alcotest.(check int) "four infos" 4 (Diag.count Diag.Info ds)

(* ---------- SG012: the cross-interface pass ---------- *)

let test_system_pristine () =
  Alcotest.(check (list string))
    "real wiring is sound" []
    (List.map Diag.to_string (Analysis.analyze_system (pristine ())))

let test_system_missing_wakeup () =
  let ds =
    Analysis.analyze_system
      ~wakeup_deps:[ ("lock", "sched", "no_such_fn") ]
      ~boot_order:[ "sched"; "lock" ]
      (pristine ())
  in
  Alcotest.(check int) "one finding" 1 (List.length ds);
  let d = List.hd ds in
  Alcotest.(check string) "code" "SG012" d.Diag.d_code;
  Alcotest.(check bool) "error" true (d.Diag.d_severity = Diag.Error);
  Alcotest.(check bool) "names fn" true (contains d.Diag.d_message "no_such_fn")

let test_system_boot_order () =
  (* sched_wakeup is a real wakeup, but here the dependent boots first *)
  let ds =
    Analysis.analyze_system
      ~wakeup_deps:[ ("lock", "sched", "sched_wakeup") ]
      ~boot_order:[ "lock"; "sched" ]
      (pristine ())
  in
  Alcotest.(check int) "one finding" 1 (List.length ds);
  let d = List.hd ds in
  Alcotest.(check string) "code" "SG012" d.Diag.d_code;
  Alcotest.(check bool) "mentions boot" true
    (contains d.Diag.d_message "boots before")

let test_system_skips_absent () =
  Alcotest.(check (list string))
    "deps on absent interfaces are skipped" []
    (List.map Diag.to_string
       (Analysis.analyze_system
          ~wakeup_deps:[ ("ghost", "sched", "sched_wakeup") ]
          [ Compiler.builtin "sched" ]))

(* ---------- the mutation campaign ---------- *)

(* A mutant kills a rule when lint over the six interfaces (with the
   mutated source substituted for its interface, and the mutant's extra
   wiring edges added to the system graph) reports strictly more
   findings of that rule's code than the pristine baseline does. A
   mutant the compiler itself rejects counts as a compile-stage
   detection (SG900-SG902). *)
(* lint plus the taint and race passes: SG016-SG019 come from
   Taint.analyze and SG021-SG025 from Race.analyze, so a taint or
   interference surgery registers as a kill the same way a lint
   surgery does *)
let lint_and_taint ?wakeup_deps arts =
  Analysis.lint ?wakeup_deps arts
  @ (Taint.analyze ?wakeup_deps arts).Taint.t_diags
  @ (Race.analyze ?wakeup_deps arts).Race.r_diags

let run_campaign () =
  let baseline = lint_and_taint (pristine ()) in
  let kills = Hashtbl.create 16 in
  let record code id =
    let prev = Option.value ~default:[] (Hashtbl.find_opt kills code) in
    Hashtbl.replace kills code (id :: prev)
  in
  let mutants = Mutate.builtin_mutants () in
  List.iter
    (fun m ->
      match Compiler.compile ~name:m.Mutate.m_iface m.Mutate.m_source with
      | exception Compiler.Compile_error ds ->
          List.iter (fun d -> record d.Diag.d_code m.Mutate.m_id) ds;
          record "compile-error" m.Mutate.m_id
      | a ->
          let arts =
            List.map
              (fun n -> if n = m.Mutate.m_iface then a else Compiler.builtin n)
              Compiler.builtin_names
          in
          let ds =
            lint_and_taint
              ~wakeup_deps:
                (Sysgraph.default_wakeup_deps @ m.Mutate.m_wiring)
              arts
          in
          List.iter
            (fun code ->
              if count_code code ds > count_code code baseline then
                record code m.Mutate.m_id)
            (codes ds))
    mutants;
  (mutants, kills)

let campaign = lazy (run_campaign ())

let test_corpus_size () =
  let mutants, _ = Lazy.force campaign in
  if List.length mutants < 30 then
    Alcotest.failf "corpus too small: %d mutants" (List.length mutants);
  let ids = List.map (fun m -> m.Mutate.m_id) mutants in
  Alcotest.(check int)
    "mutant ids are unique"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_every_rule_killed () =
  let _, kills = Lazy.force campaign in
  let must_kill =
    [
      "SG001"; "SG002"; "SG003"; "SG004"; "SG005"; "SG006"; "SG007";
      "SG008"; "SG009"; "SG010"; "SG011"; "SG012"; "SG013"; "SG014";
      "SG015"; "SG016"; "SG017"; "SG018"; "SG019"; "SG020"; "SG021";
      "SG022"; "SG023"; "SG024"; "SG025";
      "compile-error";
    ]
  in
  List.iter
    (fun code ->
      match Hashtbl.find_opt kills code with
      | Some (_ :: _) -> ()
      | _ -> Alcotest.failf "no mutant killed by %s" code)
    must_kill

let test_mutants_never_crash () =
  (* already exercised by run_campaign, but assert the totality claim
     explicitly: analyze must not raise on any compiling mutant *)
  List.iter
    (fun m ->
      match Compiler.compile ~name:m.Mutate.m_iface m.Mutate.m_source with
      | exception Compiler.Compile_error _ -> ()
      | a ->
          let ds = Analysis.analyze a in
          ignore (List.map Diag.to_string ds);
          let r = Taint.analyze [ a ] in
          ignore (Taint.render r);
          let rr = Race.analyze ~wakeup_deps:m.Mutate.m_wiring [ a ] in
          ignore (Race.render rr))
    (Mutate.builtin_mutants ())

(* ---------- the JSON report ---------- *)

let test_json_roundtrip () =
  let ds =
    Analysis.lint (pristine ())
    @ Analysis.analyze_system
        ~wakeup_deps:[ ("lock", "sched", "no_such_fn") ]
        ~boot_order:[ "sched"; "lock" ]
        (pristine ())
    (* a cycle plus a boot-inconsistent chain, so the report carries
       SG013/SG015 system findings too *)
    @ Analysis.analyze_system
        ~wakeup_deps:
          [
            ("sched", "lock", "lock_wakeup");
            ("lock", "sched", "sched_wakeup");
            ("timer", "ghost", "g_wake");
            ("ghost", "mm", "mman_wake");
          ]
        ~boot_order:[ "sched"; "lock"; "timer"; "mm" ]
        (pristine ())
  in
  Alcotest.(check bool) "mix has SG013" true
    (count_code "SG013" ds > 0);
  Alcotest.(check bool) "mix has SG015" true
    (count_code "SG015" ds > 0);
  let j = Analysis.report_to_json ds in
  let parsed = Json.parse (Json.to_string j) in
  (match Json.member "version" parsed with
  | Some (Json.Int 2) -> ()
  | _ -> Alcotest.fail "version field lost");
  (match Json.member "schema" parsed with
  | Some (Json.Str "sgc-lint") -> ()
  | _ -> Alcotest.fail "schema field lost");
  (match Json.member "errors" parsed with
  | Some (Json.Int n) when n = Diag.count Diag.Error ds -> ()
  | v ->
      Alcotest.failf "errors count wrong: %s"
        (match v with Some j -> Json.to_string j | None -> "absent"));
  match Analysis.report_of_json parsed with
  | None -> Alcotest.fail "report_of_json failed"
  | Some ds' ->
      Alcotest.(check int) "length" (List.length ds) (List.length ds');
      List.iter2
        (fun a b ->
          Alcotest.(check string) "diag" (Diag.to_string a) (Diag.to_string b);
          Alcotest.(check bool) "span" true (a.Diag.d_span = b.Diag.d_span))
        ds ds'

let test_json_parse_escapes () =
  let j =
    Json.Obj [ ("m", Json.Str "quote \" slash \\ newline \n tab \t") ]
  in
  Alcotest.(check bool) "escape roundtrip" true
    (Json.parse (Json.to_string j) = j)

(* Property: any diagnostic list — arbitrary rule codes, severities,
   messages full of characters that need escaping, present or absent
   spans — survives report_to_json / to_string / parse /
   report_of_json unchanged. *)
let gen_diag =
  let open QCheck.Gen in
  let code =
    oneofl ("compile-error" :: List.map (fun (c, _, _) -> c) Analysis.rules)
  in
  let sev = oneofl [ Diag.Error; Diag.Warning; Diag.Info ] in
  (* printable ASCII including '"' and '\\' to stress the escaper *)
  let text = string_size ~gen:(map Char.chr (int_range 32 126)) (int_range 0 24) in
  let span =
    opt
      (map3
         (fun f l c -> { Diag.sp_file = f; sp_line = l; sp_col = c })
         text (int_range 1 999) (int_range 1 200))
  in
  map3
    (fun (c, s) sp m ->
      { Diag.d_code = c; d_severity = s; d_span = sp; d_message = m })
    (pair code sev) span text

let prop_report_roundtrip =
  QCheck.Test.make ~name:"lint report JSON round-trips any diagnostic list"
    ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 12) gen_diag)
       ~print:(fun ds -> String.concat "\n" (List.map Diag.to_string ds)))
    (fun ds ->
      let parsed = Json.parse (Json.to_string (Analysis.report_to_json ds)) in
      match Analysis.report_of_json parsed with
      | None -> false
      | Some ds' -> ds' = ds)

(* ---------- the static worst-case recovery bound ---------- *)

let test_bounds_all_finite () =
  let r = Wcr.analyze (pristine ()) in
  Alcotest.(check int) "six services" 6 (List.length r.Wcr.r_services);
  Alcotest.(check int) "36 pairs" 36 (List.length r.Wcr.r_pairs);
  List.iter
    (fun (p : Wcr.pair) ->
      match p.Wcr.p_bound_ns with
      | Some b when b > 0 -> ()
      | Some b ->
          Alcotest.failf "non-positive bound %d for %s/%s" b p.Wcr.p_crashed
            p.Wcr.p_client
      | None ->
          Alcotest.failf "unbounded pair %s/%s" p.Wcr.p_crashed p.Wcr.p_client)
    r.Wcr.r_pairs;
  (* episode shapes nest: a chained client waits through the crashed
     service's whole direct episode plus its own access, an unrelated
     client pays strictly less than any direct episode *)
  List.iter
    (fun (p : Wcr.pair) ->
      let direct =
        Option.get (Wcr.bound_for r ~crashed:p.Wcr.p_crashed ~client:p.Wcr.p_crashed)
      in
      let b = Option.get p.Wcr.p_bound_ns in
      match p.Wcr.p_kind with
      | Wcr.Direct ->
          Alcotest.(check int) "direct pair equals direct bound" direct b
      | Wcr.Transitive n ->
          if n < 1 then Alcotest.failf "transitive pair with %d hops" n;
          if b <= direct then
            Alcotest.failf "transitive bound %d not above direct %d" b direct
      | Wcr.Unrelated ->
          if b >= direct then
            Alcotest.failf "unrelated bound %d not below direct %d" b direct)
    r.Wcr.r_pairs

(* B(scale c f) = f * (B(c) - B(c0)) + B(c0) where c0 = scale c 0: the
   bound is affine in the cost constants (the usage-profile terms are
   deliberately not scaled), so calibrating the cost model rescales
   every bound without re-running the analysis. *)
let test_scale_commutes () =
  let arts = pristine () in
  let bounds f =
    let params =
      { Wcr.default_params with Wcr.p_cost = Cost.scale Cost.default f }
    in
    (Wcr.analyze ~params arts).Wcr.r_pairs
  in
  let b1 = (Wcr.analyze arts).Wcr.r_pairs in
  let b0 = bounds 0. in
  List.iter
    (fun f ->
      let bf = bounds (float_of_int f) in
      List.iter2
        (fun (pf : Wcr.pair) ((p1 : Wcr.pair), (p0 : Wcr.pair)) ->
          match (pf.Wcr.p_bound_ns, p1.Wcr.p_bound_ns, p0.Wcr.p_bound_ns) with
          | Some vf, Some v1, Some v0 ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%s at scale %d" pf.Wcr.p_crashed
                   pf.Wcr.p_client f)
                ((f * (v1 - v0)) + v0)
                vf
          | _ -> Alcotest.fail "unbounded pair under scaling")
        bf (List.combine b1 b0))
    [ 0; 2; 5 ]

let find_mutant id =
  match
    List.find_opt (fun m -> m.Mutate.m_id = id) (Mutate.builtin_mutants ())
  with
  | Some m -> m
  | None -> Alcotest.failf "mutant %s missing from the corpus" id

let substitute m =
  List.map
    (fun n ->
      if n = m.Mutate.m_iface then Compiler.compile ~name:n m.Mutate.m_source
      else Compiler.builtin n)
    Compiler.builtin_names

let test_drop_cap_unbounds () =
  let m = find_mutant "sched/drop-cap/0" in
  let r = Wcr.analyze (substitute m) in
  Alcotest.(check (option int))
    "no cap means no bound" None
    (Wcr.bound_for r ~crashed:"sched" ~client:"sched");
  (* the other services keep their own direct bounds *)
  match Wcr.bound_for r ~crashed:"mm" ~client:"mm" with
  | Some _ -> ()
  | None -> Alcotest.fail "unrelated service lost its bound"

let test_inflate_cap_raises_bound () =
  let base = Wcr.analyze (pristine ()) in
  let m = find_mutant "sched/inflate-cap/0" in
  let r = Wcr.analyze (substitute m) in
  match
    ( Wcr.bound_for base ~crashed:"sched" ~client:"sched",
      Wcr.bound_for r ~crashed:"sched" ~client:"sched" )
  with
  | Some b0, Some b1 ->
      if b1 <= b0 then
        Alcotest.failf "inflating the cap did not raise the bound (%d <= %d)"
          b1 b0
  | _ -> Alcotest.fail "direct bound missing"

(* ---------- the taint verdict table ---------- *)

(* Every interface edge of all six builtins is classified: each function
   contributes one entry per parameter, one for "ret", one for "@drop",
   and — unless it blocks — one each for "@dup"/"@reorder". *)
let test_taint_total_coverage () =
  let arts = pristine () in
  let r = Taint.analyze arts in
  let expected =
    List.fold_left
      (fun acc a ->
        let ir = a.Compiler.a_ir in
        List.fold_left
          (fun acc f ->
            let fn = f.Superglue.Ir.f_name in
            let blocking =
              List.mem fn ir.Superglue.Ir.ir_blocks
              || List.mem fn ir.Superglue.Ir.ir_block_holds
            in
            acc
            + List.length f.Superglue.Ir.f_params
            + 2
            + if blocking then 0 else 2)
          acc ir.Superglue.Ir.ir_funcs)
      0 arts
  in
  Alcotest.(check int) "every edge classified" expected
    (List.length r.Taint.t_entries);
  (* the pinned pristine verdict census: a classifier change that shifts
     any verdict must re-validate against the DST adversary *)
  let count v =
    List.length
      (List.filter (fun e -> e.Taint.e_verdict = v) r.Taint.t_entries)
  in
  Alcotest.(check int) "entries" 118 expected;
  Alcotest.(check int) "masked" 51 (count Taint.Masked);
  Alcotest.(check int) "detected" 49 (count Taint.Detected);
  Alcotest.(check int) "silent" 18 (count Taint.Silent);
  Alcotest.(check (list string)) "pristine is finding-free" []
    (List.map Diag.to_string r.Taint.t_diags)

let test_taint_json_schema () =
  let r = Taint.analyze (pristine ()) in
  let j = Json.parse (Json.to_string (Taint.report_to_json r)) in
  let int_field name expect =
    match Json.member name j with
    | Some (Json.Int n) when n = expect -> ()
    | v ->
        Alcotest.failf "field %s: expected %d, got %s" name expect
          (match v with Some j -> Json.to_string j | None -> "absent")
  in
  (match Json.member "schema" j with
  | Some (Json.Str "sgc-taint") -> ()
  | _ -> Alcotest.fail "schema field wrong");
  int_field "version" 1;
  int_field "fields" (List.length r.Taint.t_entries);
  int_field "errors" 0;
  match Json.member "entries" j with
  | Some (Json.List es) ->
      Alcotest.(check int) "entries array" (List.length r.Taint.t_entries)
        (List.length es);
      List.iter2
        (fun ej e ->
          List.iter
            (fun (name, v) ->
              match Json.member name ej with
              | Some (Json.Str s) when s = v -> ()
              | _ -> Alcotest.failf "entry field %s lost" name)
            [
              ("iface", e.Taint.e_iface);
              ("fn", e.Taint.e_fn);
              ("field", e.Taint.e_field);
              ("verdict", Taint.verdict_to_string e.Taint.e_verdict);
            ])
        es r.Taint.t_entries
  | _ -> Alcotest.fail "entries array lost"

(* Property: the taint pass is total and deterministic over the whole
   mutant corpus — analyzing any compiling mutant (substituted into the
   builtin artifact set) never raises and yields the same report twice. *)
let prop_taint_total_deterministic =
  let corpus =
    lazy
      (Array.of_list
         (List.filter_map
            (fun m ->
              match
                Compiler.compile ~name:m.Mutate.m_iface m.Mutate.m_source
              with
              | exception Compiler.Compile_error _ -> None
              | a ->
                  Some
                    ( m.Mutate.m_id,
                      List.map
                        (fun n ->
                          if n = m.Mutate.m_iface then a
                          else Compiler.builtin n)
                        Compiler.builtin_names,
                      m.Mutate.m_wiring ))
            (Mutate.builtin_mutants ())))
  in
  QCheck.Test.make
    ~name:"taint pass total and deterministic over builtins + every mutant"
    ~count:60
    (QCheck.make
       QCheck.Gen.(int_range (-1) 1000)
       ~print:string_of_int)
    (fun i ->
      let id, arts, wiring =
        if i < 0 then ("pristine", pristine (), [])
        else
          let c = Lazy.force corpus in
          c.(i mod Array.length c)
      in
      let wakeup_deps = Sysgraph.default_wakeup_deps @ wiring in
      let r1 = Taint.analyze ~wakeup_deps arts in
      let r2 = Taint.analyze ~wakeup_deps arts in
      if r1 <> r2 then QCheck.Test.fail_reportf "%s: nondeterministic" id;
      List.for_all
        (fun e ->
          ignore (Taint.verdict_to_string e.Taint.e_verdict);
          e.Taint.e_reason <> "")
        r1.Taint.t_entries)

(* ---------- the race verdict table ---------- *)

(* The pinned pristine interference census: every (recovery walk,
   concurrent invocation) pair of the six builtins is classified, and a
   classifier change that shifts any verdict must re-validate against
   the sustained recovery-racing DST campaign. *)
let test_race_census () =
  let arts = pristine () in
  let r = Race.analyze arts in
  let count v =
    List.length
      (List.filter (fun e -> e.Race.r_verdict = v) r.Race.r_entries)
  in
  Alcotest.(check int) "pairs" 138 (List.length r.Race.r_entries);
  Alcotest.(check int) "isolated" 113 (count Race.Isolated);
  Alcotest.(check int) "serialized" 20 (count Race.Serialized);
  Alcotest.(check int) "racy" 5 (count Race.Racy);
  Alcotest.(check int) "one walk interval per service" 6
    (List.length r.Race.r_walks);
  let racy =
    List.filter_map
      (fun e ->
        if e.Race.r_verdict = Race.Racy then
          Some (e.Race.r_walker, e.Race.r_fn, e.Race.r_field)
        else None)
      r.Race.r_entries
  in
  Alcotest.(check (list (triple string string string)))
    "the racy pairs (each needs a dynamic witness)"
    [
      ("evt", "evt_split", "compid");
      ("fs", "tlseek", "off");
      ("fs", "tsplit", "name");
      ("sched", "sched_create", "prio");
      ("timer", "timer_create", "period_ns");
    ]
    (List.sort compare racy);
  Alcotest.(check (list string)) "pristine is finding-free" []
    (List.map Diag.to_string r.Race.r_diags);
  List.iter
    (fun v ->
      match Race.verdict_of_string (Race.verdict_to_string v) with
      | Some v' when v' = v -> ()
      | _ -> Alcotest.fail "verdict does not round-trip")
    [ Race.Isolated; Race.Serialized; Race.Racy ]

(* The exact bytes of both verdict-table reports over the six builtins,
   pinned (md5 and length of the compact JSON): the censuses above
   cannot see a changed reason, phase or field. The report is the
   output of [sgc taint --json --builtins] / [sgc race --json
   --builtins] without its trailing newline. *)
let check_report_bytes what ~md5 ~len json =
  let s = Json.to_string json in
  Alcotest.(check int) (what ^ " report length") len (String.length s);
  Alcotest.(check string) (what ^ " report md5") md5
    (Digest.to_hex (Digest.string s))

let test_taint_report_bytes () =
  check_report_bytes "taint" ~md5:"505575a5c05050edc8639e548a247d08"
    ~len:21646
    (Taint.report_to_json (Taint.analyze (pristine ())))

let test_race_report_bytes () =
  check_report_bytes "race" ~md5:"85fcc66af4f66ead0bc723f4ef3dbe8c"
    ~len:29467
    (Race.report_to_json (Race.analyze (pristine ())))

let test_race_json_schema () =
  let r = Race.analyze (pristine ()) in
  let j = Json.parse (Json.to_string (Race.report_to_json r)) in
  let int_field name expect =
    match Json.member name j with
    | Some (Json.Int n) when n = expect -> ()
    | v ->
        Alcotest.failf "field %s: expected %d, got %s" name expect
          (match v with Some j -> Json.to_string j | None -> "absent")
  in
  (match Json.member "schema" j with
  | Some (Json.Str "sgc-race") -> ()
  | _ -> Alcotest.fail "schema field wrong");
  int_field "version" 1;
  int_field "pairs" (List.length r.Race.r_entries);
  int_field "isolated" 113;
  int_field "serialized" 20;
  int_field "racy" 5;
  int_field "errors" 0;
  (match Json.member "walks" j with
  | Some (Json.List ws) ->
      Alcotest.(check int) "walks array" 6 (List.length ws)
  | _ -> Alcotest.fail "walks array lost");
  match Json.member "entries" j with
  | Some (Json.List es) ->
      Alcotest.(check int) "entries array" (List.length r.Race.r_entries)
        (List.length es);
      List.iter2
        (fun ej e ->
          List.iter
            (fun (name, v) ->
              match Json.member name ej with
              | Some (Json.Str s) when s = v -> ()
              | _ -> Alcotest.failf "entry field %s lost" name)
            [
              ("walker", e.Race.r_walker);
              ("iface", e.Race.r_iface);
              ("fn", e.Race.r_fn);
              ("phase", e.Race.r_phase);
              ("verdict", Race.verdict_to_string e.Race.r_verdict);
            ])
        es r.Race.r_entries
  | _ -> Alcotest.fail "entries array lost"

(* ---------- the rule table ---------- *)

let test_rule_table () =
  let cs = List.map (fun (c, _, _) -> c) Analysis.rules in
  Alcotest.(check int) "codes unique" (List.length cs)
    (List.length (List.sort_uniq compare cs));
  Alcotest.(check bool) "SG007 documented" true
    (Analysis.rule_doc "SG007" <> None);
  Alcotest.(check (option string)) "unknown code" None
    (Analysis.rule_doc "SG999")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Totality: every code in Analysis.rules has a one-line doc, a row in
   the DESIGN.md rule table, and a mention in the README — so a rule
   cannot be added without being documented (and this list pins the
   current contents). *)
let test_rules_documented () =
  let expected_codes =
    [
      "SG001"; "SG002"; "SG003"; "SG004"; "SG005"; "SG006"; "SG007";
      "SG008"; "SG009"; "SG010"; "SG011"; "SG012"; "SG013"; "SG014";
      "SG015"; "SG016"; "SG017"; "SG018"; "SG019"; "SG020"; "SG021";
      "SG022"; "SG023"; "SG024"; "SG025"; "SG900"; "SG901"; "SG902";
    ]
  in
  Alcotest.(check (list string))
    "rules table contents" expected_codes
    (List.map (fun (c, _, _) -> c) Analysis.rules);
  let design = read_file (locate "../DESIGN.md" "DESIGN.md") in
  let readme = read_file (locate "../README.md" "README.md") in
  List.iter
    (fun (code, _, doc) ->
      (match Analysis.rule_doc code with
      | Some d when d = doc -> ()
      | _ -> Alcotest.failf "rule_doc out of sync for %s" code);
      if not (contains design code) then
        Alcotest.failf "%s has no DESIGN.md table row" code)
    Analysis.rules;
  List.iter
    (fun code ->
      if not (contains readme code) then
        Alcotest.failf "%s not mentioned in README.md" code)
    [ "SG001"; "SG013"; "SG014"; "SG015"; "SG020"; "SG021"; "SG025"; "SG900" ]

(* ---------- the fixture corpus ---------- *)

(* Each fixture's first line is "/* expect: <code> */": either a rule
   code the analyzer (or compiler) must report for that file, or
   "clean" meaning the file lints with no findings at all. An optional
   second line "/* system: deps=a>b:fn,... boot=x,y */" overrides the
   wiring the fixture lints under, so single-file fixtures can
   exercise the system-graph rules (SG012/SG013/SG015). *)
let fixture_expectation path =
  let ic = open_in path in
  let line =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> input_line ic)
  in
  match String.index_opt line ':' with
  | Some i when contains line "expect" ->
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      let rest =
        match String.index_opt rest '*' with
        | Some j -> String.sub rest 0 j
        | None -> rest
      in
      String.trim rest
  | _ -> Alcotest.failf "%s has no expect: header" path

let drop_prefix p s =
  if
    String.length s > String.length p
    && String.sub s 0 (String.length p) = p
  then Some (String.sub s (String.length p) (String.length s - String.length p))
  else None

let fixture_system path =
  let ic = open_in path in
  let line2 =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let (_ : string) = input_line ic in
        try Some (input_line ic) with End_of_file -> None)
  in
  match line2 with
  | Some l when contains l "system:" ->
      let deps = ref None and boot = ref None in
      List.iter
        (fun tok ->
          (match drop_prefix "deps=" tok with
          | Some v ->
              deps :=
                Some
                  (List.map
                     (fun e ->
                       match String.split_on_char '>' e with
                       | [ d; rest ] -> (
                           match String.split_on_char ':' rest with
                           | [ tg; fn ] -> (d, tg, fn)
                           | _ -> Alcotest.failf "%s: bad dep %s" path e)
                       | _ -> Alcotest.failf "%s: bad dep %s" path e)
                     (String.split_on_char ',' v))
          | None -> ());
          match drop_prefix "boot=" tok with
          | Some v -> boot := Some (String.split_on_char ',' v)
          | None -> ())
        (String.split_on_char ' ' l);
      (!deps, !boot)
  | _ -> (None, None)

let test_fixtures () =
  let dir = locate "fixtures" "test/fixtures" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sgidl")
    |> List.sort compare
  in
  if List.length files < 16 then
    Alcotest.failf "fixture corpus too small: %d files" (List.length files);
  List.iter
    (fun f ->
      let path = Filename.concat dir f in
      let expect = fixture_expectation path in
      match Compiler.compile_file path with
      | exception Compiler.Compile_error ds ->
          let got = codes ds in
          if not (List.mem expect got) then
            Alcotest.failf "%s: expected %s, compile failed with %s" f expect
              (String.concat " " got)
      | a -> (
          let wakeup_deps, boot_order = fixture_system path in
          let ds =
            Analysis.lint ?wakeup_deps ?boot_order [ a ]
            @ (Taint.analyze ?wakeup_deps ?boot_order [ a ]).Taint.t_diags
            @ (Race.analyze ?wakeup_deps ?boot_order [ a ]).Race.r_diags
          in
          match expect with
          | "clean" ->
              Alcotest.(check (list string))
                (f ^ " clean") []
                (List.map Diag.to_string ds)
          | code ->
              if count_code code ds = 0 then
                Alcotest.failf "%s: expected %s, got [%s]" f code
                  (String.concat "; " (List.map Diag.to_string ds))))
    files

let () =
  Alcotest.run "analysis"
    [
      ( "pristine",
        [
          Alcotest.test_case "builtins golden snapshot" `Quick
            test_pristine_builtins;
          Alcotest.test_case "analyze finds nothing" `Quick
            test_pristine_analyze_empty;
          Alcotest.test_case "idl files lint clean" `Quick
            test_idl_files_lint_clean;
        ] );
      ( "system",
        [
          Alcotest.test_case "pristine wiring" `Quick test_system_pristine;
          Alcotest.test_case "missing wakeup" `Quick test_system_missing_wakeup;
          Alcotest.test_case "boot order" `Quick test_system_boot_order;
          Alcotest.test_case "absent interfaces skipped" `Quick
            test_system_skips_absent;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "corpus size" `Quick test_corpus_size;
          Alcotest.test_case "every rule killed" `Quick test_every_rule_killed;
          Alcotest.test_case "analyzer total on corpus" `Quick
            test_mutants_never_crash;
        ] );
      ( "json",
        [
          Alcotest.test_case "report round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "string escapes" `Quick test_json_parse_escapes;
          QCheck_alcotest.to_alcotest prop_report_roundtrip;
        ] );
      ( "wcr",
        [
          Alcotest.test_case "all builtin pairs bounded" `Quick
            test_bounds_all_finite;
          Alcotest.test_case "Cost.scale commutes with the bound" `Quick
            test_scale_commutes;
          Alcotest.test_case "dropping the cap unbounds" `Quick
            test_drop_cap_unbounds;
          Alcotest.test_case "inflating the cap raises the bound" `Quick
            test_inflate_cap_raises_bound;
        ] );
      ( "taint",
        [
          Alcotest.test_case "every builtin edge classified" `Quick
            test_taint_total_coverage;
          Alcotest.test_case "JSON schema" `Quick test_taint_json_schema;
          Alcotest.test_case "pinned report bytes" `Quick
            test_taint_report_bytes;
          QCheck_alcotest.to_alcotest prop_taint_total_deterministic;
        ] );
      ( "race",
        [
          Alcotest.test_case "pinned verdict census" `Quick test_race_census;
          Alcotest.test_case "JSON schema" `Quick test_race_json_schema;
          Alcotest.test_case "pinned report bytes" `Quick
            test_race_report_bytes;
        ] );
      ( "rules",
        [
          Alcotest.test_case "table is consistent" `Quick test_rule_table;
          Alcotest.test_case "every rule documented" `Quick
            test_rules_documented;
        ] );
      ( "fixtures",
        [ Alcotest.test_case "expectations hold" `Quick test_fixtures ] );
    ]
