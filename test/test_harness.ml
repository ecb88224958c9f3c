(* Smoke tests for the experiment harness: every figure/table driver
   must produce rows with the paper's qualitative shape at reduced
   parameters, so regressions in the benchmark paths are caught by
   `dune runtest`, not first seen in bench output. *)

module Fig6 = Sg_harness.Fig6
module Fig7 = Sg_harness.Fig7
module Table2 = Sg_harness.Table2
module Ablation = Sg_harness.Ablation
module Campaign = Sg_swifi.Campaign
module Stats = Sg_util.Stats

let test_fig6a_shape () =
  let rows = Fig6.infrastructure ~reps:2 ~iters:30 () in
  Alcotest.(check int) "six components" 6 (List.length rows);
  List.iter
    (fun r ->
      if r.Fig6.o_c3.Stats.mean <= 0.0 then
        Alcotest.failf "%s: C3 overhead not positive" r.Fig6.o_iface;
      if r.Fig6.o_sg.Stats.mean <= r.Fig6.o_c3.Stats.mean then
        Alcotest.failf "%s: SuperGlue overhead should exceed C3's" r.Fig6.o_iface)
    rows

let test_fig6b_shape () =
  let rows = Fig6.recovery ~reps:2 () in
  List.iter
    (fun r ->
      if r.Fig6.v_c3.Stats.mean <= 0.0 then
        Alcotest.failf "%s: recovery cost not positive" r.Fig6.v_iface;
      if r.Fig6.v_sg.Stats.mean < r.Fig6.v_c3.Stats.mean then
        Alcotest.failf "%s: SuperGlue per-descriptor recovery below C3's"
          r.Fig6.v_iface)
    rows;
  let find iface = List.find (fun r -> r.Fig6.v_iface = iface) rows in
  (* the paper's ordering claim: the event manager (all mechanisms but
     D0) costs more than the lock (T0/R0/T1 only) *)
  if (find "evt").Fig6.v_sg.Stats.mean <= (find "lock").Fig6.v_sg.Stats.mean
  then Alcotest.fail "event recovery should cost more than lock recovery"

let test_fig6c_shape () =
  (* the C³ column must not depend on the working directory *)
  let cwd = Sys.getcwd () in
  let rows =
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () ->
        Sys.chdir (Filename.get_temp_dir_name ());
        Fig6.loc ())
  in
  List.iter
    (fun r ->
      if r.Fig6.l_idl <= 0 || r.Fig6.l_generated <= 0 || r.Fig6.l_c3 <= 0 then
        Alcotest.failf "%s: missing LOC data" r.Fig6.l_iface;
      if r.Fig6.l_generated <= r.Fig6.l_idl then
        Alcotest.failf "%s: generated code should exceed the IDL" r.Fig6.l_iface)
    rows

let test_table2_quick () =
  let rows = Table2.run ~injections:80 () in
  Alcotest.(check int) "six rows" 6 (List.length rows);
  List.iter
    (fun (r : Campaign.row) ->
      Alcotest.(check int) (r.Campaign.r_iface ^ " injected") 80 r.Campaign.r_injected;
      if Campaign.success_rate r < 0.75 then
        Alcotest.failf "%s: success rate %.2f below band" r.Campaign.r_iface
          (Campaign.success_rate r))
    rows

let test_fig7_quick () =
  let rows = Fig7.run ~requests:4_000 ~reps:1 () in
  let rps name =
    (List.find (fun r -> r.Fig7.w_config = name) rows).Fig7.w_rps.Stats.mean
  in
  let base = rps "composite (base)" in
  let c3 = rps "composite + c3" in
  let sg = rps "composite + superglue" in
  if not (base > c3 && c3 > sg) then
    Alcotest.failf "ordering violated: base=%.0f c3=%.0f sg=%.0f" base c3 sg;
  let slow = 100.0 *. (base -. sg) /. base in
  if slow < 8.0 || slow > 16.0 then
    Alcotest.failf "superglue slowdown %.1f%% outside the paper's band" slow;
  List.iter
    (fun r -> Alcotest.(check int) (r.Fig7.w_config ^ " errors") 0 r.Fig7.w_errors)
    rows

let test_ablation_quick () =
  match Ablation.run ~descriptors:20 () with
  | [ ondemand; eager ] ->
      if eager.Ablation.a_first_access_us <= 3.0 *. ondemand.Ablation.a_first_access_us
      then
        Alcotest.failf "eager (%.1f us) should dwarf on-demand (%.1f us)"
          eager.Ablation.a_first_access_us ondemand.Ablation.a_first_access_us;
      Alcotest.(check int) "on-demand walks one descriptor" 1
        ondemand.Ablation.a_walks_at_access;
      Alcotest.(check int) "eager walks them all" 21 eager.Ablation.a_walks_at_access
  | _ -> Alcotest.fail "expected two rows"

let test_cmon_empties_other () =
  let plain =
    Campaign.run ~mode:Superglue.Stubset.mode ~iface:"sched" ~injections:300 ()
  in
  let cmon =
    Campaign.run ~cmon_period_ns:5_000 ~mode:Superglue.Stubset.mode
      ~iface:"sched" ~injections:300 ()
  in
  Alcotest.(check int) "no latent faults with the monitor" 0 cmon.Campaign.r_other;
  if Campaign.success_rate cmon < Campaign.success_rate plain then
    Alcotest.fail "the monitor should not reduce the success rate"

let () =
  Alcotest.run "sg_harness"
    [
      ( "fig6",
        [
          Alcotest.test_case "(a) tracking overhead shape" `Quick test_fig6a_shape;
          Alcotest.test_case "(b) recovery overhead shape" `Quick test_fig6b_shape;
          Alcotest.test_case "(c) LOC shape" `Quick test_fig6c_shape;
        ] );
      ("table2", [ Alcotest.test_case "quick campaign" `Quick test_table2_quick ]);
      ("fig7", [ Alcotest.test_case "quick throughput" `Quick test_fig7_quick ]);
      ( "extensions",
        [
          Alcotest.test_case "ablation" `Quick test_ablation_quick;
          Alcotest.test_case "cmon" `Quick test_cmon_empties_other;
        ] );
    ]
