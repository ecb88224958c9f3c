(* Interface-value fault-propagation taint analysis (DESIGN.md §3.11).

   The pass has two halves:

   1. A datum-flow graph per interface, in the style of the SG007
      capture/replay fixpoint: nodes are metadata datums and (fn, field)
      slots; capture edges go from desc_data-class parameters and
      annotated return values into the datum store, replay edges from
      the store into the arguments recovery walks rebuild, key edges
      into the namespace/parent keys of creations. Storage sources are
      added for G_dr/D_r interfaces, cross-component reach from the
      wakeup digraph. SG016-SG019 are properties of this graph.

   2. A verdict classifier over every (fn, field) edge, grading what a
      corrupted value crossing that edge can do, given the model flags
      and the function's state-machine role. The classifier encodes
      which corruptions the template network masks (replayed captures,
      server-validated operands), which it detects (descriptor-table
      key displacement faults with EINVAL) and which it can only pass
      through (data payloads, data-plane metadata, revocation counts).
      The table is validated end-to-end by the DST edge adversary. *)

module Ast = Superglue.Ast
module Json = Sg_util.Json
module Ir = Superglue.Ir
module Machine = Superglue.Machine
module Model = Superglue.Model
module Compiler = Superglue.Compiler
module Diag = Superglue.Diag

type verdict = Masked | Detected | Silent

let verdict_to_string = function
  | Masked -> "masked"
  | Detected -> "detected"
  | Silent -> "silent"

let verdict_of_string = function
  | "masked" -> Some Masked
  | "detected" -> Some Detected
  | "silent" -> Some Silent
  | _ -> None

type entry = {
  e_iface : string;
  e_fn : string;
  e_field : string;
  e_kind : string;
  e_verdict : verdict;
  e_reason : string;
}

type report = { t_entries : entry list; t_diags : Diag.t list }

(* ---------- per-function helpers ---------- *)

let attr_to_string = function
  | Ast.APlain -> "plain"
  | Ast.ADesc -> "desc"
  | Ast.ADescData -> "desc_data"
  | Ast.AParentDesc -> "parent_desc"
  | Ast.ADescDataParent -> "desc_data_parent"
  | Ast.ADescNs -> "desc_ns"

let has_plain_string f =
  List.exists
    (fun p -> p.Ast.pa_attr = Ast.APlain && Ir.marshal_is_string p.Ast.pa_type)
    f.Ir.f_params

let has_plain_non_string f =
  List.exists
    (fun p ->
      p.Ast.pa_attr = Ast.APlain && not (Ir.marshal_is_string p.Ast.pa_type))
    f.Ir.f_params

let has_desc_param f =
  List.exists (fun p -> p.Ast.pa_attr = Ast.ADesc) f.Ir.f_params

let read_shaped _ir f =
  f.Ir.f_retval <> None && has_plain_non_string f && not (has_plain_string f)

(* A creation is client-keyed when callers address the descriptor by a
   value the client chose: a desc(...) argument, or an echoed retval
   (the annotated return datum is also a desc_data parameter). *)
let client_keyed f =
  has_desc_param f
  ||
  match f.Ir.f_retval with
  | None -> false
  | Some { Ast.ra_name; _ } ->
      List.exists
        (fun p -> p.Ast.pa_attr = Ast.ADescData && p.Ast.pa_name = ra_name)
        f.Ir.f_params

(* ---------- cross-component reach over the wakeup digraph ---------- *)

(* Interfaces whose recovery transitively depends on [iface]'s wakeup
   edges: taint leaving [iface] on those edges can reach their state. *)
let dependents ~wakeup_deps iface =
  let direct target =
    List.filter_map
      (fun (a, b, _) -> if b = target then Some a else None)
      wakeup_deps
  in
  let rec go seen frontier =
    match frontier with
    | [] -> List.sort compare seen
    | x :: rest ->
        let fresh =
          List.filter (fun a -> not (List.mem a seen)) (direct x)
        in
        go (fresh @ seen) (fresh @ rest)
  in
  go [] [ iface ]

(* ---------- the per-field verdict classifier ---------- *)

let storage_coupled m = m.Model.global || m.Model.resc_data

(* A service whose blocked waiters are released by the passage of time
   rather than an explicit wakeup call (the timer shape: blocking
   functions, no wakeup). Its captured metadata steers *when* waiters
   wake, so the client observes a corrupted value end-to-end as a
   rebound cadence — no validator sits in between. *)
let time_driven_block ir =
  ir.Ir.ir_blocks <> [] && ir.Ir.ir_wakeups = []

let classify_param ir m p =
  match p.Ast.pa_attr with
  | Ast.ADesc | Ast.AParentDesc | Ast.ADescDataParent ->
      ( Detected,
        "descriptor key displaced: the lookup misses the table and a \
         keyed call fails with EINVAL" )
  | Ast.ADescNs ->
      ( Masked,
        "namespace key is captured; replay rebinds it and subtree \
         bookkeeping is key-agnostic" )
  | Ast.ADescData ->
      if m.Model.resc_data then
        ( Silent,
          "data-plane metadata steers storage reads/writes with no \
           validator between client and resource" )
      else if time_driven_block ir then
        ( Silent,
          "captured metadata steers time-driven blocking; the client \
           observes the corrupted cadence with no validator" )
      else
        ( Masked,
          "captured metadata only feeds recovery replay, which \
           regenerates it from the client's tracking" )
  | Ast.APlain ->
      if m.Model.global then
        (Masked, "global-registry operand; the server re-derives it")
      else if Ir.marshal_is_string p.Ast.pa_type then
        ( Silent,
          "uninterpreted data payload crosses the edge unchecked and \
           lands in resource state" )
      else
        ( Masked,
          "integer control operand; the server clamps or validates it \
           before use" )

let classify_ret ir fn m f =
  if Ir.is_create ir fn then
    if has_desc_param f then
      ( Masked,
        "the id echoes the client-chosen key argument; callers key by \
         the argument, not the reply" )
    else
      ( Detected,
        "the returned id is the only handle; a corrupted id misses the \
         descriptor table on the next keyed call" )
  else if Ir.is_terminal ir fn && m.Model.close_children then
    ( Silent,
      "recursive revocation returns the subtree census; a corrupted \
       count silently diverges from the client's model" )
  else if f.Ir.f_retval <> None && read_shaped ir f then
    (Silent, "the return value is the read payload itself; no validator")
  else
    ( Masked,
      "status/count return; callers ignore it or collapse it to a \
       boolean" )

let has_descns f =
  List.exists (fun p -> p.Ast.pa_attr = Ast.ADescNs) f.Ir.f_params

let classify_drop ir fn m f =
  if Ir.is_create ir fn then
    if m.Model.close_children && has_descns f then
      ( Silent,
        "the dropped cross-component child is never re-addressed; only \
         the parent's subtree census accounts for it" )
    else
      ( Detected,
        "the client tracks a descriptor the server never made; the \
         next keyed call fails with EINVAL" )
  else if Ir.is_terminal ir fn then
    if m.Model.close_children then
      ( Silent,
        "a dropped revocation leaves the subtree live while the client \
         believes it reclaimed; the census diverges" )
    else (Masked, "a dropped teardown only leaks server state; no caller sees it")
  else if List.mem fn ir.Ir.ir_block_holds then
    ( Silent,
      "a dropped acquisition voids mutual exclusion: two holders \
       proceed with no failure signal at the edge" )
  else if Ir.is_transient_block ir fn then
    ( Masked,
      "a dropped transient block degrades to a no-op wait; progress \
       resumes on the next dispatch" )
  else if Ir.is_wakeup ir fn then
    if m.Model.global then
      ( Masked,
        "global notification is retried at-least-once by the driver \
         until the waiter runs" )
    else
      ( Silent,
        "a dropped wakeup starves the blocked thread; nothing at the \
         edge distinguishes it from a slow waiter" )
  else if m.Model.resc_data then
    ( Silent,
      "a dropped data-plane operation loses the write/read effect; \
       only an end-to-end oracle notices" )
  else (Masked, "a dropped stateless update has no tracked effect to lose")

let classify_redeliver ir fn m f ~ghost =
  if Ir.is_create ir fn then
    if ghost && m.Model.close_children && not (has_descns f) then
      ( Silent,
        "recursive revocation already freed the replayed creation's key \
         with its whole subtree, so the ghost creation succeeds and \
         re-anchors a revocable mapping the tracker never saw" )
    else if client_keyed f then
      ( Detected,
        "re-creating under the client-chosen key collides in the \
         descriptor table; the duplicate fails with EINVAL" )
    else
      ( Masked,
        "the server allocates a fresh id; the first instance leaks but \
         no edge observes it" )
  else if Ir.is_terminal ir fn then
    ( Detected,
      "the second revocation finds the descriptor gone and fails with \
       EINVAL" )
  else if Ir.is_wakeup ir fn then
    ( Masked,
      "an extra notification latches as pending or releases spuriously; \
       blocking semantics absorb it" )
  else if m.Model.resc_data && read_shaped ir f then
    ( Silent,
      "redelivery advances the server-side cursor twice; the payload \
       the client sees is silently wrong" )
  else if
    (* a ghost-replayed cursor-accumulating write displaces where the
       real one lands; a duplicated one only extends past the committed
       size, which no reader addresses *)
    ghost && m.Model.resc_data
    && match f.Ir.f_retval with
       | Some { Ast.ra_kind = `Accum; _ } -> true
       | _ -> false
  then
    ( Silent,
      "replaying the previous invocation first advances the \
       accumulating cursor, so the real operation lands displaced" )
  else
    (Masked, "the operation is idempotent at the server; state converges")

(* ---------- entry construction ---------- *)

let cross_note deps =
  match deps with
  | [] -> ""
  | ds -> "; cross-component: reachable from " ^ String.concat ", " ds

let entries_of_artifact ~wakeup_deps art =
  let ir = art.Compiler.a_ir in
  let m = ir.Ir.ir_model in
  let deps = dependents ~wakeup_deps ir.Ir.ir_name in
  let entry fn field kind (verdict, reason) =
    let reason =
      match verdict with Silent -> reason ^ cross_note deps | _ -> reason
    in
    {
      e_iface = ir.Ir.ir_name;
      e_fn = fn;
      e_field = field;
      e_kind = kind;
      e_verdict = verdict;
      e_reason = reason;
    }
  in
  List.concat_map
    (fun f ->
      let fn = f.Ir.f_name in
      let params =
        List.map
          (fun p ->
            entry fn p.Ast.pa_name
              (attr_to_string p.Ast.pa_attr)
              (classify_param ir m p))
          f.Ir.f_params
      in
      let ret = [ entry fn "ret" "ret" (classify_ret ir fn m f) ] in
      let drop = [ entry fn "@drop" "delivery" (classify_drop ir fn m f) ] in
      let redeliver =
        if Ir.is_blocking ir fn then []
        else
          [
            entry fn "@dup" "delivery"
              (classify_redeliver ir fn m f ~ghost:false);
            entry fn "@reorder" "delivery"
              (classify_redeliver ir fn m f ~ghost:true);
          ]
      in
      params @ ret @ drop @ redeliver)
    ir.Ir.ir_funcs

(* ---------- SG016-SG019 over the datum-flow graph ---------- *)

(* SG016: a silent parameter that is not even captured for replay, on an
   interface without a storage-backed resource — the corruption crosses
   into another component's state with no copy anywhere that recovery
   or an oracle could compare against. *)
let check_sg016 entries art =
  let ir = art.Compiler.a_ir in
  List.filter_map
    (fun e ->
      if
        e.e_iface = ir.Ir.ir_name && e.e_verdict = Silent
        && e.e_kind <> "ret" && e.e_kind <> "delivery"
        && (not (List.mem e.e_field (Ir.captured ir e.e_fn)))
        && not ir.Ir.ir_model.Model.resc_data
      then
        Some
          (Ir.fn_error ir e.e_fn "SG016"
             (Printf.sprintf
                "%s.%s: parameter %s propagates silently across the \
                 component boundary and is not captured; no replica \
                 exists to mask or compare it"
                e.e_iface e.e_fn e.e_field))
      else None)
    entries

(* SG017: a non-creation function writes (via its retval annotation) a
   datum that a creation's recovery walk replays — corrupt the return
   once and every post-crash replay of the creation re-injects it. *)
let check_sg017 art =
  let ir = art.Compiler.a_ir in
  List.filter_map
    (fun f ->
      let fn = f.Ir.f_name in
      if Ir.is_create ir fn then None
      else
        match f.Ir.f_retval with
        | None -> None
        | Some { Ast.ra_name; _ } ->
            let feeding_creates =
              List.filter
                (fun c -> List.mem ra_name (Ir.replayed ir c))
                ir.Ir.ir_creates
            in
            if feeding_creates = [] then None
            else
              Some
                (Ir.fn_error ir fn "SG017"
                   (Printf.sprintf
                      "%s.%s: captured return datum %s is replayed into \
                       creation %s; a corrupted reply is re-injected by \
                       every recovery walk"
                      ir.Ir.ir_name fn ra_name
                      (String.concat ", " feeding_creates))))
    ir.Ir.ir_funcs

(* SG018: a datum captured outside any creation reaches a
   descriptor-table key (namespace or cross-component parent key) of a
   creation — taint flows into the key space that recovery and
   revocation index by. *)
let check_sg018 art =
  let ir = art.Compiler.a_ir in
  let update_captures =
    List.concat_map
      (fun f ->
        let fn = f.Ir.f_name in
        if Ir.is_create ir fn then []
        else List.map (fun d -> (fn, d)) (Ir.captured ir fn))
      ir.Ir.ir_funcs
  in
  List.concat_map
    (fun c ->
      match Ir.func ir c with
      | None -> []
      | Some cf ->
          List.concat_map
            (fun p ->
              match p.Ast.pa_attr with
              | Ast.ADescNs | Ast.ADescDataParent ->
                  List.filter_map
                    (fun (fn, d) ->
                      if d = p.Ast.pa_name then
                        Some
                          (Ir.fn_error ir fn "SG018"
                             (Printf.sprintf
                                "%s.%s: captures datum %s, which is the \
                                 descriptor-table key %s of creation %s; \
                                 taint can displace the key space"
                                ir.Ir.ir_name fn d p.Ast.pa_name c))
                      else None)
                    update_captures
              | _ -> [])
            cf.Ir.f_params)
    ir.Ir.ir_creates

(* SG019: on a storage-coupled interface, a creation takes a plain
   (uncaptured) parameter — after a reboot the G1 storage replay
   re-reads the resource, but nothing regenerates the plain operand, so
   a corrupted storage read of it survives into the rebuilt state. *)
let check_sg019 art =
  let ir = art.Compiler.a_ir in
  if not (storage_coupled ir.Ir.ir_model) then []
  else
    List.concat_map
      (fun c ->
        match Ir.func ir c with
        | None -> []
        | Some cf ->
            List.filter_map
              (fun p ->
                if p.Ast.pa_attr = Ast.APlain then
                  Some
                    (Ir.fn_error ir c "SG019"
                       (Printf.sprintf
                          "%s.%s: plain parameter %s on a storage-coupled \
                           creation is never captured; a corrupted \
                           storage read of it survives reboot"
                          ir.Ir.ir_name c p.Ast.pa_name))
                else None)
              cf.Ir.f_params)
      ir.Ir.ir_creates

(* ---------- the pass ---------- *)

let analyze ?wakeup_deps arts =
  let wakeup_deps =
    match wakeup_deps with
    | Some d -> d
    | None -> Sysgraph.default_wakeup_deps
  in
  let entries =
    List.concat_map (entries_of_artifact ~wakeup_deps) arts
  in
  let diags =
    List.concat_map
      (fun art ->
        check_sg016 entries art @ check_sg017 art @ check_sg018 art
        @ check_sg019 art)
      arts
  in
  { t_entries = entries; t_diags = diags }

(* ---------- rendering ---------- *)

let count v r =
  List.length (List.filter (fun e -> e.e_verdict = v) r.t_entries)

let edge_count r =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun e -> Hashtbl.replace seen (e.e_iface, e.e_fn) ())
    r.t_entries;
  Hashtbl.length seen

let render r =
  let buf = Buffer.create 4096 in
  let last = ref "" in
  List.iter
    (fun e ->
      if e.e_iface <> !last then begin
        if !last <> "" then Buffer.add_char buf '\n';
        Buffer.add_string buf (Printf.sprintf "interface %s\n" e.e_iface);
        last := e.e_iface
      end;
      Buffer.add_string buf
        (Printf.sprintf "  %-18s %-12s %-16s %-8s %s\n" e.e_fn e.e_field
           e.e_kind
           (verdict_to_string e.e_verdict)
           e.e_reason))
    r.t_entries;
  Buffer.add_string buf
    (Printf.sprintf
       "\n%d edge(s), %d field(s): %d masked, %d detected, %d silent\n"
       (edge_count r)
       (List.length r.t_entries)
       (count Masked r) (count Detected r) (count Silent r));
  List.iter
    (fun d -> Buffer.add_string buf (Diag.to_string d ^ "\n"))
    r.t_diags;
  Buffer.contents buf

let entry_to_json e =
  Json.Obj
    [
      ("iface", Json.Str e.e_iface);
      ("fn", Json.Str e.e_fn);
      ("field", Json.Str e.e_field);
      ("kind", Json.Str e.e_kind);
      ("verdict", Json.Str (verdict_to_string e.e_verdict));
      ("reason", Json.Str e.e_reason);
    ]

let report_to_json r =
  Json.versioned_report ~schema:"sgc-taint" ~version:1
    [
      ("entries", Json.List (List.map entry_to_json r.t_entries));
      ("edges", Json.Int (edge_count r));
      ("fields", Json.Int (List.length r.t_entries));
      ("masked", Json.Int (count Masked r));
      ("detected", Json.Int (count Detected r));
      ("silent", Json.Int (count Silent r));
      ("diagnostics", Json.List (List.map Analysis.diag_to_json r.t_diags));
      ("errors", Json.Int (Diag.count Diag.Error r.t_diags));
    ]
