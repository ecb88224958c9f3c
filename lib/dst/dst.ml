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

(* ---------- the edge-adversary campaign ---------- *)

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

type adversary_row = {
  ar_entry : Taint.entry;
  ar_unfired : int;
  ar_masked : int;
  ar_detected : int;
  ar_silent : int;
  ar_witness : Exec.scenario option;
  ar_ok : bool;
}

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

let classify_outcome (o : Exec.outcome) =
  match o.Exec.oc_adversary with
  | None -> Ob_unfired
  | Some a when not a.Exec.ao_fired -> Ob_unfired
  | Some a when a.Exec.ao_errors > 0 -> Ob_detected
  | Some _ when Exec.verdict_class o.Exec.oc_verdict = "pass" -> Ob_masked
  | Some _ -> Ob_silent

(* One verdict-table entry, graded against scenarios at seeds
   [seed, seed+budget) with the perturbation anchor cycling through
   invocations 1-3, so the scan covers different workloads and different
   positions without outrunning the handful of invocations a 10-op
   scenario makes on one function. The budget is asymmetric: a
   Masked/Detected claim is graded on exactly [per_entry] scenarios (its
   gate is the *absence* of silent observations on that pinned set),
   while a Silent claim hunts a witness and may scan up to 8x that —
   stopping at the first one, so a dense entry stays cheap and only a
   sparse witness (a reorder needing two same-descriptor writes in a
   row, say) spends the extension. *)
let adversary_row ~seed ~per_entry entry =
  let iface = entry.Taint.e_iface
  and fn = entry.Taint.e_fn
  and field = entry.Taint.e_field in
  let unf = ref 0 and mas = ref 0 and det = ref 0 and sil = ref 0 in
  let witness = ref None in
  let claims_silent = entry.Taint.e_verdict = Taint.Silent in
  let budget = if claims_silent then per_entry * 8 else per_entry in
  let rec go k =
    if k < budget then begin
      let sc =
        adversary_scenario ~iface ~fn ~field ~nth:((k mod 3) + 1) (seed + k)
      in
      (match classify_outcome (Exec.run sc) with
      | Ob_unfired -> incr unf
      | Ob_masked -> incr mas
      | Ob_detected -> incr det
      | Ob_silent ->
          incr sil;
          if !witness = None then witness := Some sc);
      if not (claims_silent && !witness <> None) then go (k + 1)
    end
  in
  go 0;
  {
    ar_entry = entry;
    ar_unfired = !unf;
    ar_masked = !mas;
    ar_detected = !det;
    ar_silent = !sil;
    ar_witness = (if claims_silent then !witness else None);
    ar_ok = (if claims_silent then !sil >= 1 else !sil = 0);
  }

(* The confusion-matrix gate (ISSUE: adversary validation): every entry
   of the pristine verdict table is graded. A row mismatches when a
   silent claim found no witnessing scenario, or a masked/detected claim
   produced an unexplained (silent) failure. Detected observations on
   masked edges are fine — an organic Error reply on the perturbed
   interface explains the run without contradicting the table. Rows are
   delivered in table order and are identical at every [jobs]. *)
let run_adversary ?(jobs = 1) ?(on_row = fun (_ : adversary_row) -> ())
    ~seed ~per_entry () =
  let report =
    Taint.analyze (List.map Compiler.builtin Compiler.builtin_names)
  in
  let entries = Array.of_list report.Taint.t_entries in
  let rows = ref [] and mismatches = ref 0 in
  Sg_util.Pool.run ~jobs ~count:(Array.length entries)
    ~task:(fun ~cancelled:_ i ->
      adversary_row ~seed:(seed + (i * per_entry * 8)) ~per_entry entries.(i))
    ~consume:(fun _ r ->
      rows := r :: !rows;
      if not r.ar_ok then incr mismatches;
      on_row r;
      Sg_util.Pool.Continue)
    ();
  (List.rev !rows, !mismatches)

(* ---------- the recovery-interference (race) campaign ---------- *)

module Race = Sg_analysis.Race

type race_row = {
  ra_entry : Race.entry;
  ra_unfired : int;
  ra_masked : int;
  ra_detected : int;
  ra_silent : int;
  ra_witness : Exec.scenario option;
  ra_ok : bool;
}

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

(* One verdict-table pair, graded like an adversary row: a racy claim
   hunts a silent in-walk witness over up to [8 * per_entry] scenarios
   (stopping at the first), an isolated/serialized claim is graded on
   exactly [per_entry] scenarios and must produce zero silent
   outcomes. The crash anchor and the perturbed field cycle with the
   scenario index so the walk lands at different points of the op
   sequence.

   A racy claim is discharged two ways. When the workload reads the
   datum back (a file name or seek cursor, a timer deadline) the
   corruption surfaces end-to-end: a silent observation, shrunk to a
   replayable witness artifact. When no read-back path exists (a
   thread priority, an event component id) the claim's falsifiable
   half is still graded: the corrupted replay must be *accepted* —
   fired on live walks with zero [Error] replies anywhere on the edge
   over the whole hunt budget. A detection would prove the server
   validates the datum, refuting the racy verdict. *)
let race_row ~seed ~per_entry ~fields entry =
  let walker = entry.Race.r_walker
  and iface = entry.Race.r_iface
  and fn = entry.Race.r_fn in
  let unf = ref 0 and mas = ref 0 and det = ref 0 and sil = ref 0 in
  let witness = ref None in
  let claims_racy = entry.Race.r_verdict = Race.Racy in
  let budget = if claims_racy then per_entry * 8 else per_entry in
  let nfields = List.length fields in
  let rec go k =
    if k < budget then begin
      let sc =
        race_scenario ~walker ~iface ~fn
          ~field:(List.nth fields (k mod nfields))
          ~crash_nth:(1 + (k mod 3))
          (seed + k)
      in
      (match classify_outcome (Exec.run sc) with
      | Ob_unfired -> incr unf
      | Ob_masked -> incr mas
      | Ob_detected -> incr det
      | Ob_silent ->
          incr sil;
          if !witness = None then witness := Some sc);
      if not (claims_racy && !witness <> None) then go (k + 1)
    end
  in
  go 0;
  {
    ra_entry = entry;
    ra_unfired = !unf;
    ra_masked = !mas;
    ra_detected = !det;
    ra_silent = !sil;
    ra_witness = (if claims_racy then !witness else None);
    ra_ok =
      (if claims_racy then !sil >= 1 || (!mas >= 1 && !det = 0)
       else !sil = 0);
  }

(* The race gate (ISSUE: every racy verdict needs a dynamic witness,
   every isolated/serialized verdict must survive the sustained
   recovery-racing campaign). Rows are delivered in verdict-table order
   and are identical at every [jobs] — same pool discipline as
   [run_adversary]. *)
let run_race ?(jobs = 1) ?(on_row = fun (_ : race_row) -> ()) ~seed
    ~per_entry () =
  let arts = List.map Compiler.builtin Compiler.builtin_names in
  let report = Race.analyze arts in
  let entries = Array.of_list report.Race.r_entries in
  let rows = ref [] and mismatches = ref 0 in
  Sg_util.Pool.run ~jobs ~count:(Array.length entries)
    ~task:(fun ~cancelled:_ i ->
      let e = entries.(i) in
      race_row
        ~seed:(seed + (i * per_entry * 8))
        ~per_entry ~fields:(race_fields e arts) e)
    ~consume:(fun _ r ->
      rows := r :: !rows;
      if not r.ra_ok then incr mismatches;
      on_row r;
      Sg_util.Pool.Continue)
    ();
  (List.rev !rows, !mismatches)
