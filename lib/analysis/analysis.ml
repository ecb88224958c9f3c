(* The recovery-soundness static analyzer: a rule set over the compiled
   IR and state machine that checks what the template network silently
   assumes — every tracked state is reachable and releasable, blocked
   threads can be woken, and every recovery plan can actually be
   replayed from the data the stubs capture (paper §III-B/§IV-B). Rule
   codes are stable; DESIGN.md maps each to the paper mechanism it
   guards. *)

module Ast = Superglue.Ast
module Json = Sg_util.Json
module Ir = Superglue.Ir
module Machine = Superglue.Machine
module Model = Superglue.Model
module Compiler = Superglue.Compiler
module Codegen = Superglue.Codegen
module Diag = Superglue.Diag

(* ---------- the rule table ---------- *)

let rules =
  [
    ("SG001", Diag.Error, "state-machine state unreachable from s0");
    ("SG002", Diag.Warning, "descriptor leak: state cannot reach a terminal");
    ("SG003", Diag.Warning, "duplicate state-machine declaration");
    ("SG004", Diag.Error, "state-holding block without a wakeup function");
    ("SG005", Diag.Warning, "wakeup declared but nothing blocks");
    ("SG006", Diag.Error, "blocked state has no transition to any wakeup");
    ("SG007", Diag.Error, "recovery plan not replayable from captured data");
    ("SG008", Diag.Warning, "descriptor model inconsistent with usage");
    ("SG009", Diag.Error, "function has conflicting state-machine roles");
    ("SG010", Diag.Warning, "declared function absent from the state machine");
    ("SG011", Diag.Warning, "template network inconsistent with the model");
    ("SG012", Diag.Error, "wakeup dependency violates system boot order");
    ("SG013", Diag.Error, "wakeup dependency cycle: recovery deadlock");
    ("SG014", Diag.Error, "recovery walk count not statically bounded");
    ("SG015", Diag.Error, "transitive wakeup chain inconsistent with boot order");
    (* SG016-SG019 are emitted by the taint pass (Taint.analyze /
       `sgc taint`), not by lint: they grade fault propagation across
       interface edges rather than replay soundness. *)
    ("SG016", Diag.Error, "silent cross-component fault propagation");
    ("SG017", Diag.Error, "unreplayed captured metadata feeds an interface value");
    ("SG018", Diag.Error, "tainted value can reach a descriptor-table key");
    ("SG019", Diag.Error, "storage-read taint survives reboot unregenerated");
    ("SG020", Diag.Info, "post-state recovered by state-class collapsing");
    (* SG021-SG025 are emitted by the race pass (Race.analyze /
       `sgc race`): they grade recovery-walk interference windows —
       what a concurrent invocation can do to descriptor state a walk
       holds or rebuilds — rather than replay soundness. *)
    ("SG021", Diag.Error, "captured data with no state-machine role races the walk");
    ("SG022", Diag.Error, "untracked data-plane access defeats replay ordering");
    ("SG023", Diag.Error, "wakeup payload lost in a mid-walk epoch");
    ("SG024", Diag.Error, "tracker mutation outside the walk lock discipline");
    ("SG025", Diag.Error, "unserialized multi-edge collusion on a shared service");
    ("SG900", Diag.Error, "lexical error");
    ("SG901", Diag.Error, "syntax error");
    ("SG902", Diag.Error, "semantic error");
  ]

let rule_doc code =
  List.find_map
    (fun (c, _, doc) -> if c = code then Some doc else None)
    rules

(* ---------- shared helpers ---------- *)

let sm_pos ir pred =
  List.find_map
    (fun (d, pos) -> if pred d then Some pos else None)
    ir.Ir.ir_sm_decls

let sm_span ir pred =
  Option.map (fun p -> Ir.span ~name:ir.Ir.ir_name p) (sm_pos ir pred)

let model_span ir = Ir.span ~name:ir.Ir.ir_name ir.Ir.ir_model_pos

(* State-machine edges as (source state, function, target state). *)
let edges ir =
  List.map (fun c -> (Machine.s0, c, Machine.after c)) ir.Ir.ir_creates
  @ List.map
      (fun (a, b) -> (Machine.after a, b, Machine.after b))
      ir.Ir.ir_transitions

(* Forward closure over the given edge set. *)
let closure edge_list starts =
  let seen = Hashtbl.create 16 in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen s) then begin
        Hashtbl.replace seen s ();
        Queue.add s q
      end)
    starts;
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    List.iter
      (fun (src, _, dst) ->
        if src = s && not (Hashtbl.mem seen dst) then begin
          Hashtbl.replace seen dst ();
          Queue.add dst q
        end)
      edge_list
  done;
  seen

let reachable_states ir = closure (edges ir) [ Machine.s0 ]

(* Functions a state-machine declaration mentions as *states* (wakeups
   are notifications, not descriptor states, unless they also appear in
   a transition). *)
let state_mentions decl =
  match decl with
  | Ast.Transition (a, b) -> [ a; b ]
  | Ast.Creation a | Ast.Terminal a | Ast.Block a | Ast.Block_hold a -> [ a ]
  | Ast.Wakeup _ -> []

let roles_of ir fn =
  List.filter
    (fun r -> r)
    [
      Ir.is_create ir fn;
      Ir.is_terminal ir fn;
      Ir.is_blocking ir fn;
      Ir.is_wakeup ir fn;
    ]

let self_set ir fn datum =
  match Ir.func ir fn with
  | Some { Ir.f_retval = Some { Ast.ra_name; _ }; _ } -> ra_name = datum
  | _ -> false

module Sset = Set.Make (String)

(* ---------- SG001/SG002: reachability and leak analysis ---------- *)

let check_reachability ir =
  let reach = reachable_states ir in
  let mentioned =
    List.concat_map (fun (d, _) -> state_mentions d) ir.Ir.ir_sm_decls
    |> List.sort_uniq compare
  in
  List.filter_map
    (fun fn ->
      if Hashtbl.mem reach (Machine.after fn) then None
      else
        Some
          (Diag.errorf ~code:"SG001"
             ?span:
               (sm_span ir (fun d -> List.mem fn (state_mentions d)))
             "state after:%s is unreachable from s0: no creation or \
              transition path produces it"
             fn))
    mentioned

let check_terminal_reach ir =
  if ir.Ir.ir_terminals = [] then
    [
      Diag.warningf ~code:"SG002" ~span:(model_span ir)
        "no terminal function declared: descriptors of %s can never be \
         released (D0 revocation has nothing to drive)"
        ir.Ir.ir_name;
    ]
  else begin
    let es = edges ir in
    let reach = reachable_states ir in
    (* backward closure from the terminal states *)
    let rev = List.map (fun (a, fn, b) -> (b, fn, a)) es in
    let can_finish =
      closure rev (List.map Machine.after ir.Ir.ir_terminals)
    in
    Hashtbl.fold
      (fun st () acc ->
        if
          st <> Machine.s0
          && (not (Hashtbl.mem can_finish st))
          && not
               (List.exists
                  (fun t -> Machine.after t = st)
                  ir.Ir.ir_terminals)
        then
          let fn = String.sub st 6 (String.length st - 6) in
          Diag.warningf ~code:"SG002" ?span:(Ir.fn_span ir fn)
            "descriptor leak: state %s cannot reach any terminal state" st
          :: acc
        else acc)
      reach []
  end

(* ---------- SG003: duplicate declarations ---------- *)

let check_duplicates ir =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (d, pos) ->
      if Hashtbl.mem seen d then
        Some
          (Diag.warningf ~code:"SG003"
             ~span:(Ir.span ~name:ir.Ir.ir_name pos)
             "duplicate state-machine declaration")
      else begin
        Hashtbl.replace seen d ();
        None
      end)
    ir.Ir.ir_sm_decls

(* ---------- SG004/SG005/SG006: block/wakeup pairing ---------- *)

let check_block_wakeup ir =
  let blocks = ir.Ir.ir_blocks and holds = ir.Ir.ir_block_holds in
  let wakeups = ir.Ir.ir_wakeups in
  let holds_no_wakeup =
    if holds <> [] && wakeups = [] then
      List.map
        (fun h ->
          Diag.errorf ~code:"SG004" ?span:(Ir.fn_span ir h)
            "%s holds state while blocked but the interface declares no \
             wakeup function: a recovered holder can never release its \
             waiters"
            h)
        holds
    else []
  in
  let stray =
    if wakeups <> [] && blocks = [] && holds = [] then
      List.map
        (fun w ->
          Diag.warningf ~code:"SG005" ?span:(Ir.fn_span ir w)
            "wakeup function %s declared but no function blocks: T0 eager \
             recovery has nothing to wake"
            w)
        wakeups
    else []
  in
  let unwoken =
    if wakeups = [] then []
    else
      List.filter_map
        (fun b ->
          let has_release =
            List.exists
              (fun (src, dst) -> src = b && List.mem dst wakeups)
              ir.Ir.ir_transitions
          in
          if has_release then None
          else
            Some
              (Diag.errorf ~code:"SG006" ?span:(Ir.fn_span ir b)
                 "no transition from %s to any wakeup function: a thread \
                  blocked in after:%s can never be woken"
                 b b))
        (blocks @ holds)
  in
  holds_no_wakeup @ stray @ unwoken

(* ---------- SG007: recovery-plan replay soundness ---------- *)

(* Fixpoint dataflow: G(st) = the metadata keys guaranteed captured on
   every call path from s0 to st. G(s0) = {}; at each edge the calling
   function's captures are added; joins intersect. A state's recovery
   plan is sound iff every datum its replayed calls look up is in G of
   the *tracked* state (the walk reads the tracked descriptor's
   metadata, not the states it passes through). *)
let guaranteed ir =
  let es = edges ir in
  let reach = reachable_states ir in
  let universe =
    List.fold_left
      (fun acc f ->
        List.fold_left
          (fun acc n -> Sset.add n acc)
          acc
          (Ir.captured ir f.Ir.f_name @ Ir.replayed ir f.Ir.f_name))
      Sset.empty ir.Ir.ir_funcs
  in
  let g = Hashtbl.create 16 in
  Hashtbl.iter
    (fun st () ->
      Hashtbl.replace g st (if st = Machine.s0 then Sset.empty else universe))
    reach;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (src, fn, dst) ->
        if dst <> Machine.s0 && Hashtbl.mem reach src then begin
          let inflow =
            Sset.union (Hashtbl.find g src)
              (Sset.of_list (Ir.captured ir fn))
          in
          let cur = Hashtbl.find g dst in
          let next = Sset.inter cur inflow in
          if not (Sset.equal next cur) then begin
            Hashtbl.replace g dst next;
            changed := true
          end
        end)
      es
  done;
  g

let check_replay ir machine =
  let reach = reachable_states ir in
  let g = guaranteed ir in
  let es = edges ir in
  let model = ir.Ir.ir_model in
  let block_fns = ir.Ir.ir_blocks @ ir.Ir.ir_block_holds in
  let block_edges =
    List.filter (fun (_, fn, _) -> List.mem fn block_fns) es
  in
  let diags = ref [] in
  let seen = Hashtbl.create 16 in
  let once key d = if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      diags := d :: !diags
    end
  in
  Hashtbl.iter
    (fun st () ->
      if st <> Machine.s0 then begin
        let p = Machine.plan machine st in
        let calls = p.Machine.pl_path @ p.Machine.pl_restore in
        let avail =
          match Hashtbl.find_opt g st with
          | Some s -> s
          | None -> Sset.empty
        in
        List.iter
          (fun fn ->
            (match Ir.func ir fn with
            | None -> ()
            | Some f ->
                List.iter
                  (fun prm ->
                    match prm.Ast.pa_attr with
                    | Ast.APlain ->
                        once
                          (`Plain (fn, prm.Ast.pa_name))
                          (Diag.errorf ~code:"SG007"
                             ~span:
                               (Ir.span ~name:ir.Ir.ir_name prm.Ast.pa_pos)
                             "recovery replays %s with a silent default for \
                              untracked plain argument %s"
                             fn prm.Ast.pa_name)
                    | Ast.AParentDesc | Ast.ADescDataParent
                      when model.Model.parent = Model.Solo ->
                        once
                          (`Parent fn)
                          (Diag.errorf ~code:"SG007"
                             ?span:(Ir.fn_span ir fn)
                             "recovery replays %s through a parent argument \
                              but the model declares no parentage"
                             fn)
                    | _ -> ())
                  f.Ir.f_params);
            List.iter
              (fun datum ->
                if
                  (not (Sset.mem datum avail))
                  && not (self_set ir fn datum)
                then
                  once
                    (`Datum (st, fn, datum))
                    (Diag.errorf ~code:"SG007" ?span:(Ir.fn_span ir fn)
                       "recovery of %s replays %s, but datum %s is not \
                        guaranteed captured on every path to %s"
                       st fn datum st))
              (Ir.replayed ir fn))
          calls;
        (* walk completeness: replaying the plan from s0 must land in the
           recovery-equivalence class of the tracked state, or leave only
           block calls for the diverted threads' own redo to replay *)
        let endpoint =
          List.fold_left
            (fun acc fn ->
              match acc with
              | None -> None
              | Some s -> Machine.sigma machine s fn)
            (Some Machine.s0) p.Machine.pl_path
        in
        match endpoint with
        | None ->
            once (`Endpoint st)
              (Diag.errorf ~code:"SG007" ?span:(Ir.fn_span ir (String.sub st 6 (String.length st - 6)))
                 "the recovery plan for %s is not a valid transition \
                  sequence from s0"
                 st)
        | Some e ->
            let ok =
              Machine.same_class machine e st
              ||
              let r = closure block_edges [ e ] in
              Hashtbl.mem r st
            in
            if not ok then
              once (`Endpoint st)
                (Diag.errorf ~code:"SG007"
                   ?span:
                     (Ir.fn_span ir (String.sub st 6 (String.length st - 6)))
                   "the recovery walk for %s stops at %s: the remaining \
                    effects cannot be replayed from tracked data and are \
                    silently dropped"
                   st e)
      end)
    reach;
  !diags

(* ---------- SG008: model/usage consistency ---------- *)

let check_model_usage ir =
  let model = ir.Ir.ir_model in
  let uses_data =
    List.exists
      (fun f ->
        List.exists
          (fun p ->
            match p.Ast.pa_attr with
            | Ast.ADescData | Ast.ADescDataParent -> true
            | _ -> false)
          f.Ir.f_params
        ||
        match f.Ir.f_retval with
        | Some _ ->
            (not (Ir.is_create ir f.Ir.f_name))
            || List.exists
                 (fun p -> p.Ast.pa_attr = Ast.ADesc)
                 f.Ir.f_params
        | None -> false)
      ir.Ir.ir_funcs
  in
  let data =
    if model.Model.desc_data && not uses_data then
      [
        Diag.warningf ~code:"SG008" ~span:(model_span ir)
          "desc_has_data = true but no function captures descriptor data";
      ]
    else if uses_data && not model.Model.desc_data then
      [
        Diag.warningf ~code:"SG008" ~span:(model_span ir)
          "descriptor data is captured but desc_has_data = false: the \
           tracking templates will not persist it";
      ]
    else []
  in
  let parent =
    let uses_parent =
      List.exists
        (fun f -> Ir.parent_arg_index f <> None)
        ir.Ir.ir_funcs
    in
    if model.Model.parent <> Model.Solo && not uses_parent then
      [
        Diag.warningf ~code:"SG008" ~span:(model_span ir)
          "desc_has_parent = %s but no function takes a parent descriptor"
          (match model.Model.parent with
          | Model.Parent -> "parent"
          | Model.XCParent -> "xcparent"
          | Model.Solo -> "solo");
      ]
    else []
  in
  let wake =
    if ir.Ir.ir_wakeups <> [] && not model.Model.block then
      [
        Diag.warningf ~code:"SG008" ~span:(model_span ir)
          "wakeup functions declared but desc_block = false";
      ]
    else []
  in
  data @ parent @ wake

(* ---------- SG009/SG010: role consistency ---------- *)

let check_roles ir =
  List.filter_map
    (fun f ->
      let fn = f.Ir.f_name in
      if List.length (roles_of ir fn) > 1 then
        Some
          (Diag.errorf ~code:"SG009" ?span:(Ir.fn_span ir fn)
             "%s has more than one state-machine role (creation, terminal, \
              block or wakeup): tracking arms would conflict"
             fn)
      else None)
    ir.Ir.ir_funcs

let check_untracked_fns ir =
  let mentioned =
    List.concat_map
      (fun (d, _) ->
        match d with
        | Ast.Transition (a, b) -> [ a; b ]
        | Ast.Creation a | Ast.Terminal a | Ast.Block a | Ast.Block_hold a
        | Ast.Wakeup a ->
            [ a ])
      ir.Ir.ir_sm_decls
  in
  List.filter_map
    (fun f ->
      let fn = f.Ir.f_name in
      if List.mem fn mentioned then None
      else
        Some
          (Diag.warningf ~code:"SG010" ?span:(Ir.fn_span ir fn)
             "%s appears in no state-machine declaration: calls to it are \
              untracked and invisible to recovery"
             fn))
    ir.Ir.ir_funcs

(* ---------- SG011: template-inclusion consistency ---------- *)

let data_templates =
  [
    "client/track/create/meta-capture";
    "client/track/update/meta-args";
    "client/track/update/retval-set";
    "client/track/update/retval-accum";
  ]

let check_templates artifact =
  let ir = artifact.Compiler.a_ir in
  let model = ir.Ir.ir_model in
  let included =
    List.map fst (Codegen.included_templates artifact) |> Sset.of_list
  in
  let has n = Sset.mem n included in
  let mechs = Compiler.mechanisms artifact in
  let any_data = List.exists has data_templates in
  List.concat
    [
      (if model.Model.desc_data && not any_data then
         [
           Diag.warningf ~code:"SG011" ~span:(model_span ir)
             "desc_has_data = true but no data-capture template is \
              included: nothing records descriptor data";
         ]
       else []);
      (if any_data && not model.Model.desc_data then
         [
           Diag.warningf ~code:"SG011" ~span:(model_span ir)
             "data-capture templates are included but desc_has_data = false";
         ]
       else []);
      (if List.mem "D0" mechs && not (has "client/track/terminal/basic") then
         [
           Diag.errorf ~code:"SG011" ~span:(model_span ir)
             "the model selects D0 recursive revocation but the terminal \
              tracking template is not included";
         ]
       else []);
      (if model.Model.block && not (has "server/t0") then
         [
           Diag.errorf ~code:"SG011" ~span:(model_span ir)
             "desc_block = true but the T0 eager-recovery template is not \
              included";
         ]
       else []);
      (if model.Model.resc_data && not (has "server/g1-resource-data") then
         [
           Diag.errorf ~code:"SG011" ~span:(model_span ir)
             "resc_has_data = true but the G1 resource-data template is not \
              included";
         ]
       else []);
    ]

(* ---------- SG012-SG015: system-graph rules (see Sysgraph) ---------- *)

let analyze_system ?wakeup_deps ?boot_order artifacts =
  Sysgraph.analyze ?wakeup_deps ?boot_order artifacts

(* ---------- entry points ---------- *)

let analyze artifact =
  let ir = artifact.Compiler.a_ir in
  let machine = artifact.Compiler.a_machine in
  List.concat
    [
      check_reachability ir;
      check_terminal_reach ir;
      check_duplicates ir;
      check_block_wakeup ir;
      check_replay ir machine;
      check_model_usage ir;
      check_roles ir;
      check_untracked_fns ir;
      check_templates artifact;
      Sysgraph.check_artifact artifact;
    ]

let lint ?wakeup_deps ?boot_order artifacts =
  let per_artifact =
    List.concat_map
      (fun a -> a.Compiler.a_warnings @ analyze a)
      artifacts
  in
  Diag.sort (per_artifact @ analyze_system ?wakeup_deps ?boot_order artifacts)

(* ---------- the JSON report ---------- *)

let diag_to_json d =
  let span_fields =
    match d.Diag.d_span with
    | None -> []
    | Some sp ->
        [
          ("file", Json.Str sp.Diag.sp_file);
          ("line", Json.Int sp.Diag.sp_line);
          ("col", Json.Int sp.Diag.sp_col);
        ]
  in
  Json.Obj
    ([
       ("code", Json.Str d.Diag.d_code);
       ("severity", Json.Str (Diag.severity_to_string d.Diag.d_severity));
     ]
    @ span_fields
    @ [ ("message", Json.Str d.Diag.d_message) ])

let report_to_json ds =
  Json.versioned_report ~schema:"sgc-lint" ~version:2
    [
      ("diagnostics", Json.List (List.map diag_to_json ds));
      ("errors", Json.Int (Diag.count Diag.Error ds));
      ("warnings", Json.Int (Diag.count Diag.Warning ds));
      ("infos", Json.Int (Diag.count Diag.Info ds));
    ]

let diag_of_json j =
  let str k = match Json.member k j with Some (Json.Str s) -> Some s | _ -> None in
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  match (str "code", str "severity", str "message") with
  | Some code, Some sev, Some message -> (
      match Diag.severity_of_string sev with
      | None -> None
      | Some severity ->
          let span =
            match (str "file", int "line", int "col") with
            | Some f, Some l, Some c ->
                Some { Diag.sp_file = f; sp_line = l; sp_col = c }
            | _ -> None
          in
          Some (Diag.make ?span ~code ~severity message))
  | _ -> None

let report_of_json j =
  match Json.member "diagnostics" j with
  | Some (Json.List ds) -> Some (List.filter_map diag_of_json ds)
  | _ -> None
