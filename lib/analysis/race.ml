(* Recovery-interference race analysis (DESIGN.md §3.13).

   A recovery walk of service W holds and rebuilds descriptor state in
   three phases: it stamps the descriptor's epoch (stamp), replays the
   state machine's plan path and restore calls (replay), and commits
   the tracking update under an end-of-walk epoch re-check (commit).
   Every invocation edge (T, fn) that can run concurrently with the
   walk intersects one of those intervals, and the happens-before
   edges the stub discipline provides — the epoch stamp ordering live
   same-service calls behind the recover-first (T1) check, the
   end-of-walk re-check redoing interrupted walks, the at-least-once
   wakeup edges ordering cross-service recovery by boot order —
   determine whether the pair is:

   - isolated: no happens-before edge couples the walk to the edge
     (different services, no wakeup path) — they share no state;
   - serialized: they can interleave but the discipline orders the
     outcome (server-validated replay operands are rejected with
     EINVAL, the epoch stamp and re-check cover live calls, wakeup
     channels deliver at-least-once);
   - racy: the walk replays a free captured datum — one the target
     cannot independently validate — so a perturbation timed into the
     replay interval rebinds descriptor state with no failure signal.

   The verdicts are facts of the specification and wiring (like the
   taint pass's masked/detected/silent): the pristine system yields a
   full table with zero findings. SG021-SG025 fire only when a
   specification or wiring defect opens an interference window, and
   each is validated by a seeded interference mutant. The table itself
   is validated dynamically by the sustained, recovery-racing DST
   adversary ([superglue-dst race]): every racy pair must produce a
   silent witness under an in-walk perturbation, and every
   isolated/serialized pair must survive the same campaign with zero
   unexplained failures. *)

module Ast = Superglue.Ast
module Json = Sg_util.Json
module Ir = Superglue.Ir
module Machine = Superglue.Machine
module Model = Superglue.Model
module Compiler = Superglue.Compiler
module Diag = Superglue.Diag

type verdict = Isolated | Serialized | Racy

let verdict_to_string = function
  | Isolated -> "isolated"
  | Serialized -> "serialized"
  | Racy -> "racy"

let verdict_of_string = function
  | "isolated" -> Some Isolated
  | "serialized" -> Some Serialized
  | "racy" -> Some Racy
  | _ -> None

type entry = {
  r_walker : string;  (** the service whose recovery walk is in flight *)
  r_iface : string;  (** the concurrent invocation's interface *)
  r_fn : string;  (** the concurrent invocation's function *)
  r_phase : string;
      (** walk interval the edge intersects: stamp | replay | commit |
          none (isolated pairs intersect nothing) *)
  r_field : string;
      (** the free captured datum a racy replay rebinds ("" otherwise):
          the field the dynamic witness hunt perturbs *)
  r_verdict : verdict;
  r_reason : string;
}

type walk = {
  w_iface : string;
  w_replayed : string list;
      (** functions some recovery plan of the service replays (plan
          path and restore calls): the replay interval's contents *)
}

type report = {
  r_walks : walk list;
  r_entries : entry list;
  r_diags : Diag.t list;
}

(* ---------- per-function helpers ---------- *)

let has_anchor f =
  List.exists
    (fun p ->
      match p.Ast.pa_attr with
      | Ast.ADesc | Ast.AParentDesc -> true
      | _ -> false)
    f.Ir.f_params

let has_plain f =
  List.exists (fun p -> p.Ast.pa_attr = Ast.APlain) f.Ir.f_params

let in_transitions ir fn =
  List.exists (fun (a, b) -> a = fn || b = fn) ir.Ir.ir_transitions

let has_role ir fn =
  Ir.is_create ir fn || Ir.is_terminal ir fn || Ir.is_blocking ir fn
  || Ir.is_wakeup ir fn || in_transitions ir fn

(* A replayed datum the target cannot independently validate: an
   ADescData parameter that is not a creation's echoed return value.
   A creation's echoed datum (mman_alias_page's dvaddr) doubles as
   the descriptor key the next keyed call addresses by, so a
   corrupted replay of it surfaces as EINVAL; free datums (a split
   name, a priority, a period — and a non-creation's cursor like
   tlseek's off, which the server accepts verbatim even though it is
   echoed: the DST campaign witnesses its silent corruption) rebind
   state silently. *)
let free_data ir fn =
  match Ir.func ir fn with
  | None -> []
  | Some f ->
      let echo =
        if Ir.is_create ir fn then
          match f.Ir.f_retval with
          | Some { Ast.ra_name; _ } -> [ ra_name ]
          | None -> []
        else []
      in
      List.filter_map
        (fun p ->
          if
            p.Ast.pa_attr = Ast.ADescData
            && not (List.mem p.Ast.pa_name echo)
          then Some p.Ast.pa_name
          else None)
        f.Ir.f_params

(* Functions some recovery plan of the artifact replays: the union of
   every state's plan path and restore calls — the replay interval. *)
let replay_set art =
  let mach = art.Compiler.a_machine in
  List.fold_left
    (fun acc st ->
      if st = "s0" then acc
      else
        let p = Machine.plan mach st in
        p.Machine.pl_path @ p.Machine.pl_restore @ acc)
    [] (Machine.states mach)
  |> List.sort_uniq compare

(* ---------- the pair classifier ---------- *)

let entry ~walker ~iface ~fn ~phase ~field verdict reason =
  {
    r_walker = walker;
    r_iface = iface;
    r_fn = fn;
    r_phase = phase;
    r_field = field;
    r_verdict = verdict;
    r_reason = reason;
  }

let classify_same walker replayed ir fn =
  if List.mem fn replayed then
    match free_data ir fn with
    | d :: _ ->
        entry ~walker ~iface:walker ~fn ~phase:"replay" ~field:d Racy
          (Printf.sprintf
             "the walk replays %s with free datum %s; a perturbation \
              timed into the replay interval rebinds state the server \
              cannot validate — no failure signal at the edge"
             fn d)
    | [] ->
        entry ~walker ~iface:walker ~fn ~phase:"replay" ~field:"" Serialized
          (Printf.sprintf
             "replayed operands of %s are server-validated keys or \
              echoed data: a perturbed replay is rejected with EINVAL \
              or re-derived from the tracker"
             fn)
  else if Ir.is_wakeup ir fn then
    entry ~walker ~iface:walker ~fn ~phase:"commit" ~field:"" Serialized
      (Printf.sprintf
         "a %s delivery into a mid-walk epoch latches as pending; the \
          end-of-walk epoch re-check and the at-least-once driver \
          replay the delivery ordering"
         fn)
  else
    entry ~walker ~iface:walker ~fn ~phase:"stamp" ~field:"" Serialized
      (Printf.sprintf
         "live %s invocations pass the recover-first (T1) check \
          against the epoch stamped at walk start; an interrupted \
          walk is redone by the end-of-walk re-check"
         fn)

let classify_cross ~wakeup_deps walker iface fn =
  if List.exists (fun (d, t, w) -> d = walker && t = iface && w = fn)
       wakeup_deps
  then
    entry ~walker ~iface ~fn ~phase:"replay" ~field:"" Serialized
      (Printf.sprintf
         "%s's walk reaches %s only through this at-least-once wakeup \
          edge; the boot order recovers the target first"
         walker iface)
  else
    entry ~walker ~iface ~fn ~phase:"none" ~field:"" Isolated
      (Printf.sprintf
         "no wakeup path couples %s.%s to %s's walk; the pair shares \
          no descriptor state"
         iface fn walker)

(* ---------- SG021-SG025: interference findings ---------- *)

(* SG021: a function that captures descriptor data but has no
   state-machine role at all — no walk ever replays its effect, so a
   live invocation concurrent with a walk mutates tracked state inside
   the window the walk rebuilds from stale captures. *)
let check_sg021 art =
  let ir = art.Compiler.a_ir in
  List.filter_map
    (fun f ->
      let fn = f.Ir.f_name in
      if Ir.captured ir fn <> [] && not (has_role ir fn) then
        Some
          (Ir.fn_error ir fn "SG021"
             (Printf.sprintf
                "%s.%s: captures descriptor data (%s) but has no \
                 state-machine role: its live mutations race every \
                 recovery walk, which rebuilds the descriptor without \
                 replaying them"
                ir.Ir.ir_name fn
                (String.concat ", " (Ir.captured ir fn))))
      else None)
    ir.Ir.ir_funcs

(* SG022: a data-plane access (resc_has_data) that captures nothing —
   the walk cannot order its replayed writes against live invocations
   of the function, so replay-vs-live interleavings land resource
   writes at unknowable positions. *)
let check_sg022 art =
  let ir = art.Compiler.a_ir in
  if not ir.Ir.ir_model.Model.resc_data then []
  else
    List.filter_map
      (fun f ->
        let fn = f.Ir.f_name in
        if
          (not (Ir.is_create ir fn))
          && (not (Ir.is_terminal ir fn))
          && has_plain f
          && Ir.captured ir fn = []
        then
          Some
            (Ir.fn_error ir fn "SG022"
               (Printf.sprintf
                  "%s.%s: accesses resource data but captures no datum: \
                   a recovery walk cannot order its replayed writes \
                   against live %s invocations — the interleaving \
                   corrupts the resource"
                  ir.Ir.ir_name fn fn))
        else None)
      ir.Ir.ir_funcs

(* SG023: a wakeup that captures data — its delivery mutates tracked
   metadata, and a delivery landing in a mid-walk epoch is overwritten
   when the walk's tracking update commits. *)
let check_sg023 art =
  let ir = art.Compiler.a_ir in
  List.filter_map
    (fun f ->
      let fn = f.Ir.f_name in
      if Ir.is_wakeup ir fn && Ir.captured ir fn <> [] then
        Some
          (Ir.fn_error ir fn "SG023"
             (Printf.sprintf
                "%s.%s: wakeup captures %s: a delivery into a mid-walk \
                 epoch is overwritten when the walk's tracking update \
                 commits — the payload is lost"
                ir.Ir.ir_name fn
                (String.concat ", " (Ir.captured ir fn))))
      else None)
    ir.Ir.ir_funcs

(* SG024: a non-creation function that captures data but takes no
   descriptor argument — the stub cannot route it through the
   recover-first (T1) check, so it mutates the tracker outside the
   walk lock discipline. *)
let check_sg024 art =
  let ir = art.Compiler.a_ir in
  List.filter_map
    (fun f ->
      let fn = f.Ir.f_name in
      if
        (not (Ir.is_create ir fn))
        && Ir.captured ir fn <> []
        && not (has_anchor f)
      then
        Some
          (Ir.fn_error ir fn "SG024"
             (Printf.sprintf
                "%s.%s: captures %s but takes no descriptor argument: \
                 the stub cannot anchor it to the recover-first (T1) \
                 check, so it mutates the tracker outside the walk \
                 lock discipline"
                ir.Ir.ir_name fn
                (String.concat ", " (Ir.captured ir fn))))
      else None)
    ir.Ir.ir_funcs

(* SG025: two or more services wake through the same target function,
   and that function holds state in the target (a creation, terminal
   or state-holding block rather than a wakeup): their unserialized
   concurrent walks both replay a state-mutating edge into the shared
   service — a collusion window no single edge check sees. *)
let check_sg025 ~wakeup_deps artifacts =
  let find name =
    List.find_opt (fun a -> a.Compiler.a_name = name) artifacts
  in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (d, t, fn) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups t) in
      Hashtbl.replace groups t ((d, fn) :: prev))
    wakeup_deps;
  Hashtbl.fold
    (fun target edges acc ->
      match find target with
      | None -> acc
      | Some art ->
          let ir = art.Compiler.a_ir in
          let dependents =
            List.sort_uniq compare (List.map fst edges)
          in
          if List.length dependents < 2 then acc
          else
            List.filter_map
              (fun (_d, fn) ->
                let holds =
                  Ir.is_create ir fn || Ir.is_terminal ir fn
                  || List.mem fn ir.Ir.ir_block_holds
                in
                if holds then
                  Some
                    (Ir.fn_error ir fn "SG025"
                       (Printf.sprintf
                          "%s.%s: services %s collude on %s through a \
                           state-holding function; their unserialized \
                           concurrent walks both replay a \
                           state-mutating edge into the shared service"
                          target fn
                          (String.concat ", " dependents)
                          target))
                else None)
              (List.sort compare edges)
            @ acc)
    groups []
  |> List.sort_uniq compare

(* ---------- the pass ---------- *)

let analyze ?wakeup_deps ?boot_order arts =
  let wakeup_deps =
    match wakeup_deps with
    | Some d -> d
    | None -> Sysgraph.default_wakeup_deps
  in
  ignore boot_order;
  let walks =
    List.map
      (fun a -> { w_iface = a.Compiler.a_name; w_replayed = replay_set a })
      arts
  in
  let entries =
    List.concat_map
      (fun walker_art ->
        let walker = walker_art.Compiler.a_name in
        let replayed = replay_set walker_art in
        List.concat_map
          (fun edge_art ->
            let ir = edge_art.Compiler.a_ir in
            List.map
              (fun f ->
                let fn = f.Ir.f_name in
                if edge_art.Compiler.a_name = walker then
                  classify_same walker replayed ir fn
                else
                  classify_cross ~wakeup_deps walker
                    edge_art.Compiler.a_name fn)
              ir.Ir.ir_funcs)
          arts)
      arts
  in
  let diags =
    List.concat_map
      (fun art ->
        check_sg021 art @ check_sg022 art @ check_sg023 art
        @ check_sg024 art)
      arts
    @ check_sg025 ~wakeup_deps arts
  in
  { r_walks = walks; r_entries = entries; r_diags = diags }

(* ---------- rendering ---------- *)

let count v r =
  List.length (List.filter (fun e -> e.r_verdict = v) r.r_entries)

let render r =
  let buf = Buffer.create 4096 in
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "walk %-8s stamp -> replay [%s] -> commit\n"
           w.w_iface
           (String.concat " " w.w_replayed)))
    r.r_walks;
  let last = ref "" in
  List.iter
    (fun e ->
      if e.r_walker <> !last then begin
        Buffer.add_string buf
          (Printf.sprintf "\nwalk of %s\n" e.r_walker);
        last := e.r_walker
      end;
      Buffer.add_string buf
        (Printf.sprintf "  %-8s %-18s %-8s %-10s %s\n" e.r_iface e.r_fn
           e.r_phase
           (verdict_to_string e.r_verdict)
           (if e.r_field = "" then e.r_reason
            else Printf.sprintf "[%s] %s" e.r_field e.r_reason)))
    r.r_entries;
  Buffer.add_string buf
    (Printf.sprintf
       "\n%d pair(s): %d isolated, %d serialized, %d racy\n"
       (List.length r.r_entries)
       (count Isolated r) (count Serialized r) (count Racy r));
  List.iter
    (fun d -> Buffer.add_string buf (Diag.to_string d ^ "\n"))
    r.r_diags;
  Buffer.contents buf

let entry_to_json e =
  Json.Obj
    [
      ("walker", Json.Str e.r_walker);
      ("iface", Json.Str e.r_iface);
      ("fn", Json.Str e.r_fn);
      ("phase", Json.Str e.r_phase);
      ("field", Json.Str e.r_field);
      ("verdict", Json.Str (verdict_to_string e.r_verdict));
      ("reason", Json.Str e.r_reason);
    ]

let walk_to_json w =
  Json.Obj
    [
      ("iface", Json.Str w.w_iface);
      ("replayed", Json.List (List.map (fun f -> Json.Str f) w.w_replayed));
    ]

let report_to_json r =
  Json.versioned_report ~schema:"sgc-race" ~version:1
    [
      ("walks", Json.List (List.map walk_to_json r.r_walks));
      ("entries", Json.List (List.map entry_to_json r.r_entries));
      ("pairs", Json.Int (List.length r.r_entries));
      ("isolated", Json.Int (count Isolated r));
      ("serialized", Json.Int (count Serialized r));
      ("racy", Json.Int (count Racy r));
      ("diagnostics", Json.List (List.map Analysis.diag_to_json r.r_diags));
      ("errors", Json.Int (Diag.count Diag.Error r.r_diags));
    ]
