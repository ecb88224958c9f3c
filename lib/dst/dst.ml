(* Campaign driver: seeds to scenarios to verdicts to artifacts.

   One integer seed determines everything downstream: the master Rng is
   split into independent workload and plan streams, so the op sequence
   and the injection plan are separately stable — changing the plan
   configuration never perturbs the generated ops for the same seed. *)

module Rng = Sg_util.Rng
module Mutate = Sg_analysis.Mutate
module Taint = Sg_analysis.Taint
module Compiler = Superglue.Compiler
module Workloads = Sg_components.Workloads

type profile = {
  pf_mix : Gen.mix;
  pf_plan : Plan.config;
  pf_len : int;
  pf_classic_every : int;
  pf_classic_iface : string option;
}

let default_profile =
  {
    pf_mix = Gen.default_mix;
    pf_plan = Plan.default_config;
    pf_len = 12;
    pf_classic_every = 5;
    pf_classic_iface = None;
  }

let focus_profile iface =
  {
    pf_mix = Gen.focus_mix iface;
    pf_plan = Plan.focus_config;
    pf_len = 10;
    pf_classic_every = 3;
    pf_classic_iface = Some iface;
  }

let scenario_of_seed ?(profile = default_profile) seed =
  let rng = Rng.create seed in
  let wl_rng, plan_rng =
    match Rng.streams rng 2 with
    | [| a; b |] -> (a, b)
    | _ -> assert false
  in
  let classic =
    profile.pf_classic_every > 0 && seed mod profile.pf_classic_every = 0
  in
  let workload =
    if classic then
      let iface =
        match profile.pf_classic_iface with
        | Some iface -> iface
        | None -> Rng.choose wl_rng (Array.of_list Workloads.all_ifaces)
      in
      Exec.Classic
        { iface; iters = 2 + Rng.int wl_rng 3; knob = 1 + Rng.int wl_rng 2 }
    else Exec.Ops (Gen.generate ~mix:profile.pf_mix wl_rng ~len:profile.pf_len)
  in
  let plan =
    Plan.generate ~config:profile.pf_plan
      ~services:(Exec.services_of_workload workload)
      plan_rng
  in
  { Exec.sc_seed = seed; sc_workload = workload; sc_plan = plan }

(* ---------- sut naming ---------- *)

let find_mutant id =
  List.find_opt (fun m -> m.Mutate.m_id = id) (Mutate.builtin_mutants ())

let sut_of_label label =
  if label = "superglue" then Some Exec.Pristine
  else
    match String.index_opt label ':' with
    | Some i when String.sub label 0 i = "mutant" ->
        let id = String.sub label (i + 1) (String.length label - i - 1) in
        Option.map (fun m -> Exec.Mutant m) (find_mutant id)
    | _ -> None

(* ---------- campaign ---------- *)

type run_report = {
  rr_seed : int;
  rr_scenario : Exec.scenario;
  rr_result : (Exec.outcome, string) result;
      (** [Error] is a mutant compile error — a trivially detected
          mutant, not a runnable scenario *)
}

let run_seed ?(sut = Exec.Pristine) ?(profile = default_profile) seed =
  let sc = scenario_of_seed ~profile seed in
  let result =
    match Exec.run ~sut sc with
    | o -> Ok o
    | exception Compiler.Compile_error ds -> Error (Compiler.error_to_string ds)
  in
  { rr_seed = seed; rr_scenario = sc; rr_result = result }

let report_failed r =
  match r.rr_result with
  | Error _ -> true
  | Ok o -> Exec.verdict_class o.Exec.oc_verdict <> "pass"

(* Campaign over a seed range: seeds are embarrassingly parallel (one
   scenario = one fresh simulator), so they fan out through the
   deterministic speculative pool. Reports are consumed in seed order
   and the campaign stops at the first failing one (returned) — the
   reports delivered, and the failing seed returned, are identical at
   every [jobs]. *)
let run_seeds ?(sut = Exec.Pristine) ?(profile = default_profile) ?(jobs = 1)
    ?(on_report = fun (_ : run_report) -> ()) ~seed ~count () =
  let found = ref None in
  Sg_util.Pool.run ~jobs ~count
    ~task:(fun ~cancelled:_ i -> run_seed ~sut ~profile (seed + i))
    ~consume:(fun _ r ->
      on_report r;
      if report_failed r then begin
        found := Some r;
        Sg_util.Pool.Stop
      end
      else Sg_util.Pool.Continue)
    ();
  !found

let shrink_to_artifact ?(jobs = 1) ?(sut = Exec.Pristine) sc =
  let minimal, cls, stats = Shrink.shrink ~jobs ~sut sc in
  ( {
      Artifact.af_sut = Exec.sut_label sut;
      af_verdict = cls;
      af_scenario = minimal;
    },
    stats )

(* replay an artifact: rerun its scenario against its recorded sut and
   report whether the recorded verdict class reproduced *)
let replay artifact =
  match sut_of_label artifact.Artifact.af_sut with
  | None ->
      Error
        (Printf.sprintf "unknown sut %S in artifact" artifact.Artifact.af_sut)
  | Some sut -> (
      match Exec.run ~sut artifact.Artifact.af_scenario with
      | o ->
          let cls = Exec.verdict_class o.Exec.oc_verdict in
          Ok (o, cls = artifact.Artifact.af_verdict)
      | exception Compiler.Compile_error ds ->
          Error (Compiler.error_to_string ds))

(* ---------- grading a static verdict table ---------- *)

(* One run of a Perturb scenario collapses to a four-way observation:
   the perturbation never reached its edge (unfired); it fired and the
   run passed with no client-visible error (the system masked it); a
   client of the perturbed interface saw an Error reply after the fire
   (detected — the fault escaped, but as a signal, not a value); or the
   run failed with no such signal (silent corruption, the class the
   taint pass exists to predict). *)
type obs = Ob_unfired | Ob_masked | Ob_detected | Ob_silent

let obs_label = function
  | Ob_unfired -> "unfired"
  | Ob_masked -> "masked"
  | Ob_detected -> "detected"
  | Ob_silent -> "silent"

let classify_outcome (o : Exec.outcome) =
  match o.Exec.oc_adversary with
  | None -> Ob_unfired
  | Some a when not a.Exec.ao_fired -> Ob_unfired
  | Some a when a.Exec.ao_errors > 0 -> Ob_detected
  | Some _ when Exec.verdict_class o.Exec.oc_verdict = "pass" -> Ob_masked
  | Some _ -> Ob_silent

type tally = {
  n_unfired : int;
  n_masked : int;
  n_detected : int;
  n_silent : int;
}

type 'e row = {
  rw_entry : 'e;
  rw_tally : tally;
  rw_witness : Exec.scenario option;
  rw_ok : bool;
}

type 'e table = {
  tb_entries : 'e list;
  tb_scenario : 'e -> int -> int -> Exec.scenario;
  tb_hunts : 'e -> bool;
  tb_discharged : tally -> bool;
}

(* One table entry, graded against the scenarios [tb_scenario entry k
   (seed + k)]. The budget is asymmetric: a claim that does not hunt is
   graded on exactly [per_entry] scenarios (its gate is the *absence* of
   silent observations on that pinned set), while a hunting claim may
   scan up to 8x that — stopping at the first witness, so a dense entry
   stays cheap and only a sparse witness (a reorder needing two
   same-descriptor writes in a row, say) spends the extension. *)
let grade_entry table ~seed ~per_entry entry =
  let scenario = table.tb_scenario entry in
  let hunts = table.tb_hunts entry in
  let budget = if hunts then per_entry * 8 else per_entry in
  let unf = ref 0 and mas = ref 0 and det = ref 0 and sil = ref 0 in
  let witness = ref None in
  let rec go k =
    if k < budget then begin
      let sc = scenario k (seed + k) in
      (match classify_outcome (Exec.run sc) with
      | Ob_unfired -> incr unf
      | Ob_masked -> incr mas
      | Ob_detected -> incr det
      | Ob_silent ->
          incr sil;
          if !witness = None then witness := Some sc);
      if not (hunts && !witness <> None) then go (k + 1)
    end
  in
  go 0;
  let tally =
    { n_unfired = !unf; n_masked = !mas; n_detected = !det; n_silent = !sil }
  in
  {
    rw_entry = entry;
    rw_tally = tally;
    rw_witness = (if hunts then !witness else None);
    rw_ok = (if hunts then table.tb_discharged tally else !sil = 0);
  }

(* The confusion-matrix gate: every entry of a pristine verdict table is
   graded, entry [i] at seeds from [seed + i*per_entry*8]. Rows are
   delivered in table order and are identical at every [jobs]. *)
let grade ?(jobs = 1) ?(on_row = ignore) ~seed ~per_entry table =
  let entries = Array.of_list table.tb_entries in
  let rows = ref [] and mismatches = ref 0 in
  Sg_util.Pool.run ~jobs ~count:(Array.length entries)
    ~task:(fun ~cancelled:_ i ->
      grade_entry table ~seed:(seed + (i * per_entry * 8)) ~per_entry
        entries.(i))
    ~consume:(fun _ r ->
      rows := r :: !rows;
      if not r.rw_ok then incr mismatches;
      on_row r;
      Sg_util.Pool.Continue)
    ();
  (List.rev !rows, !mismatches)

let builtin_artifacts () = List.map Compiler.builtin Compiler.builtin_names

(* ---------- the edge-adversary table ---------- *)

let adversary_scenario ~iface ~fn ~field ~nth seed =
  let sc = scenario_of_seed ~profile:(focus_profile iface) seed in
  {
    sc with
    Exec.sc_plan =
      [
        Plan.Perturb
          {
            pb_iface = iface;
            pb_fn = fn;
            pb_field = field;
            pb_nth = nth;
            pb_every = false;
            pb_walk = false;
          };
      ];
  }

(* A silent claim hunts a witness; a masked/detected claim mismatches
   on an unexplained (silent) failure. Detected observations on masked
   edges are fine — an organic Error reply on the perturbed interface
   explains the run without contradicting the table. The perturbation
   anchor cycles through invocations 1-3, so the scan covers different
   workloads and different positions without outrunning the handful of
   invocations a 10-op scenario makes on one function. *)
let adversary_table () =
  {
    tb_entries = (Taint.analyze (builtin_artifacts ())).Taint.t_entries;
    tb_scenario =
      (fun e k seed ->
        adversary_scenario ~iface:e.Taint.e_iface ~fn:e.Taint.e_fn
          ~field:e.Taint.e_field ~nth:((k mod 3) + 1) seed);
    tb_hunts = (fun e -> e.Taint.e_verdict = Taint.Silent);
    tb_discharged = (fun t -> t.n_silent >= 1);
  }

(* ---------- the recovery-interference (race) table ---------- *)

module Race = Sg_analysis.Race

(* A race scenario arms the *sustained, recovery-racing* adversary: the
   perturbation fires on every eligible invocation of (iface, fn), but
   only walk-replay invocations are eligible — exactly the interleaving
   the verdict speaks about. The plan pairs it with a fail-stop of the
   walker, so the walk whose interval the pair intersects actually
   runs; the workload focuses on the edge's interface so the tracker
   holds descriptors for the walk to replay. *)
let race_scenario ~walker ~iface ~fn ~field ~crash_nth seed =
  let sc = scenario_of_seed ~profile:(focus_profile iface) seed in
  {
    sc with
    Exec.sc_plan =
      [
        Plan.Crash { cr_service = walker; cr_nth = crash_nth };
        Plan.Perturb
          {
            pb_iface = iface;
            pb_fn = fn;
            pb_field = field;
            pb_nth = 1;
            pb_every = true;
            pb_walk = true;
          };
      ];
  }

(* The datum a row perturbs. A racy row corrupts its named free datum —
   the walk replays it verbatim, so the corruption must land as a
   silent rebind (the witness). An isolated/serialized row corrupts the
   *ordered* operands instead (anchors, keys, echoed data: the
   complement of [Race.free_data]), cycling through them — the claim
   under test is that every such perturbation is absorbed by the
   happens-before edge (rejected, re-derived, or never eligible), never
   silent. *)
let race_fields entry arts =
  if entry.Race.r_verdict = Race.Racy then [ entry.Race.r_field ]
  else
    match
      List.find_opt
        (fun a -> a.Compiler.a_ir.Superglue.Ir.ir_name = entry.Race.r_iface)
        arts
    with
    | None -> [ "ret" ]
    | Some a -> (
        let ir = a.Compiler.a_ir in
        let free = Race.free_data ir entry.Race.r_fn in
        match Superglue.Ir.func ir entry.Race.r_fn with
        | None -> [ "ret" ]
        | Some f -> (
            match
              List.filter_map
                (fun p ->
                  if List.mem p.Superglue.Ast.pa_name free then None
                  else Some p.Superglue.Ast.pa_name)
                f.Superglue.Ir.f_params
            with
            | [] -> [ "ret" ]
            | safe -> safe))

(* A racy claim hunts a silent in-walk witness; an isolated/serialized
   claim must produce zero silent outcomes. The crash anchor and the
   perturbed field cycle with the scan index so the walk lands at
   different points of the op sequence.

   A racy claim is discharged two ways. When the workload reads the
   datum back (a file name or seek cursor, a timer deadline) the
   corruption surfaces end-to-end: a silent observation, shrunk to a
   replayable witness artifact. When no read-back path exists (a
   thread priority, an event component id) the claim's falsifiable
   half is still graded: the corrupted replay must be *accepted* —
   fired on live walks with zero [Error] replies anywhere on the edge
   over the whole hunt budget. A detection would prove the server
   validates the datum, refuting the racy verdict. *)
let race_table () =
  let arts = builtin_artifacts () in
  {
    tb_entries = (Race.analyze arts).Race.r_entries;
    tb_scenario =
      (fun e ->
        let fields = race_fields e arts in
        let nfields = List.length fields in
        fun k seed ->
          race_scenario ~walker:e.Race.r_walker ~iface:e.Race.r_iface
            ~fn:e.Race.r_fn
            ~field:(List.nth fields (k mod nfields))
            ~crash_nth:(1 + (k mod 3))
            seed);
    tb_hunts = (fun e -> e.Race.r_verdict = Race.Racy);
    tb_discharged =
      (fun t -> t.n_silent >= 1 || (t.n_masked >= 1 && t.n_detected = 0));
  }
