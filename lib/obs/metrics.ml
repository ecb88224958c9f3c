(* Metrics: a sink subscriber that folds the event stream into the
   counters a live run reads, and the first-access histogram. Every
   event of every run passes through [feed_raw], so the one per-cid
   table is an [Inttbl] bumped in one probe and the per-outcome counts
   a short list of the few outcome classes: no polymorphic hash or
   compare, no per-span or per-walk state, and no boxing on an
   invocation. Every other fact of a run
   has no live reader; [summary] works it out from a held stream. *)

module Inttbl = Sg_util.Inttbl

type t = {
  mutable invocations : int;
  mutable reboots : int;
  mutable walks : int;
  walks_by_client : int Inttbl.t;
  mutable injections : int;
  mutable outcomes : (string * int ref) list;  (* a handful of classes *)
  first_access_hist : Hist.t;
  first_access_pending : int Inttbl.t;  (* server cid -> reboot ns *)
}

let create () =
  {
    invocations = 0;
    reboots = 0;
    walks = 0;
    walks_by_client = Inttbl.create 4;
    injections = 0;
    outcomes = [];
    first_access_hist = Hist.create ();
    first_access_pending = Inttbl.create 4;
  }

let rec count_of key = function
  | [] -> None
  | (k, n) :: rest -> if String.equal k key then Some n else count_of key rest

let outcome_count t key =
  match count_of key t.outcomes with Some n -> !n | None -> 0

let feed_raw t ~seq:_ ~at_ns ~tid:_ kind =
  match kind with
  | Event.Span_begin _ -> t.invocations <- t.invocations + 1
  | Event.Span_end { server; ok; _ } ->
      if ok && Inttbl.length t.first_access_pending > 0 then begin
        match Inttbl.find_opt t.first_access_pending server with
        | Some reboot_ns ->
            Inttbl.remove t.first_access_pending server;
            Hist.add t.first_access_hist (at_ns - reboot_ns)
        | None -> ()
      end
  | Event.Reboot { cid; _ } ->
      t.reboots <- t.reboots + 1;
      Inttbl.replace t.first_access_pending cid at_ns
  | Event.Walk_begin { client; _ } ->
      t.walks <- t.walks + 1;
      Inttbl.add t.walks_by_client client 1
  | Event.Inject { outcome; _ } ->
      t.injections <- t.injections + 1;
      (match count_of outcome t.outcomes with
      | Some n -> incr n
      | None -> t.outcomes <- (outcome, ref 1) :: t.outcomes)
  | Event.Crash _ | Event.Divert _ | Event.Upcall _ | Event.Reflect _
  | Event.Walk_end _ | Event.Recover_begin _ | Event.Recover_end _
  | Event.Storage_op _ | Event.Perturb _ | Event.Http _ | Event.Http_req _
  | Event.Note _ ->
      ()

let feed t (e : Event.t) =
  feed_raw t ~seq:e.Event.seq ~at_ns:e.Event.at_ns ~tid:e.Event.tid e.Event.kind

let attach t sink = Sink.subscribe_fold sink (feed_raw t)

let invocations t = t.invocations
let reboots t = t.reboots

let walks ?client t =
  match client with
  | None -> t.walks
  | Some c -> Inttbl.find_or t.walks_by_client c 0

let injections t = t.injections
let first_access_hist t = t.first_access_hist

(* ---------- the summary of a held stream ---------- *)

type summary = {
  metrics : t;
  spans_ok : int;
  spans_fault : int;
  crashes : int;
  reboot_ns : int;
  diverts : int;
  upcalls : int;
  storage_ops : int;
  perturbs : int;
  perturbs_in_walk : int;
  http_requests : int;
  http_errors : int;
  span_hist : Hist.t;
  walk_hist : Hist.t;
  sojourn_hist : Hist.t;
}

(* One pass in stream order, so each histogram sees its samples in the
   order a live fold would have added them, and a fresh [t] is fed the
   same events, so first access is paired by [feed_raw]'s one rule. A
   duplicate span begin replaces the begin time and an unknown end is
   ignored; only [ok] ends are recorded. A walk end closes the innermost
   open walk of the same (client, server) on its thread, so overlapping
   walks of different pairs cannot cross-charge, and walks it does not
   match stay open. *)
let summary events =
  let m = create () in
  let spans_ok = ref 0 and spans_fault = ref 0 and crashes = ref 0 in
  let reboot_ns = ref 0 and diverts = ref 0 and upcalls = ref 0 in
  let storage_ops = ref 0 and perturbs = ref 0 and perturbs_in_walk = ref 0 in
  let http_requests = ref 0 and http_errors = ref 0 in
  let span_hist = Hist.create () and walk_hist = Hist.create () in
  let sojourn_hist = Hist.create () in
  let spans = Inttbl.create 64 and walks = Inttbl.create 16 in
  let rec pop client server acc = function
    | [] -> None
    | (c, s, t0) :: rest when c = client && s = server ->
        Some (t0, List.rev_append acc rest)
    | w :: rest -> pop client server (w :: acc) rest
  in
  List.iter
    (fun (e : Event.t) ->
      feed m e;
      let at = e.Event.at_ns and tid = e.Event.tid in
      match e.Event.kind with
      | Event.Span_begin { span; _ } -> Inttbl.replace spans span at
      | Event.Span_end { span; ok; _ } -> (
          incr (if ok then spans_ok else spans_fault);
          match Inttbl.find_opt spans span with
          | Some t0 ->
              Inttbl.remove spans span;
              if ok then Hist.add span_hist (at - t0)
          | None -> ())
      | Event.Crash _ -> incr crashes
      | Event.Reboot { cost_ns; _ } -> reboot_ns := !reboot_ns + cost_ns
      | Event.Divert _ -> incr diverts
      | Event.Upcall _ -> incr upcalls
      | Event.Storage_op _ -> incr storage_ops
      | Event.Perturb { in_walk; _ } ->
          incr perturbs;
          if in_walk then incr perturbs_in_walk
      | Event.Http { status; _ } ->
          incr http_requests;
          if status >= 400 then incr http_errors
      | Event.Walk_begin { client; server; _ } ->
          let open_ = Option.value ~default:[] (Inttbl.find_opt walks tid) in
          Inttbl.replace walks tid ((client, server, at) :: open_)
      | Event.Walk_end { client; server; ok } -> (
          let open_ = Option.value ~default:[] (Inttbl.find_opt walks tid) in
          match pop client server [] open_ with
          | Some (t0, rest) ->
              Inttbl.replace walks tid rest;
              if ok then Hist.add walk_hist (at - t0)
          | None -> ())
      | Event.Http_req { arrival_ns; finish_ns; _ } ->
          Hist.add sojourn_hist (finish_ns - arrival_ns)
      | Event.Reflect _ | Event.Recover_begin _ | Event.Recover_end _
      | Event.Inject _ | Event.Note _ ->
          ())
    events;
  {
    metrics = m;
    spans_ok = !spans_ok;
    spans_fault = !spans_fault;
    crashes = !crashes;
    reboot_ns = !reboot_ns;
    diverts = !diverts;
    upcalls = !upcalls;
    storage_ops = !storage_ops;
    perturbs = !perturbs;
    perturbs_in_walk = !perturbs_in_walk;
    http_requests = !http_requests;
    http_errors = !http_errors;
    span_hist;
    walk_hist;
    sojourn_hist;
  }

let pp_summary ppf events =
  let s = summary events in
  let m = s.metrics in
  Format.fprintf ppf "invocations        %d@." m.invocations;
  Format.fprintf ppf "  ok / faulted     %d / %d@." s.spans_ok s.spans_fault;
  Format.fprintf ppf "crashes            %d@." s.crashes;
  Format.fprintf ppf "micro-reboots      %d (%d ns)@." m.reboots s.reboot_ns;
  Format.fprintf ppf "diverted threads   %d@." s.diverts;
  Format.fprintf ppf "upcalls            %d@." s.upcalls;
  Format.fprintf ppf "descriptor walks   %d@." m.walks;
  Format.fprintf ppf "storage ops        %d@." s.storage_ops;
  Format.fprintf ppf "injections         %d@." m.injections;
  if s.perturbs > 0 then
    Format.fprintf ppf "perturbations      %d (%d during walks)@." s.perturbs
      s.perturbs_in_walk;
  List.map (fun (k, n) -> (k, !n)) m.outcomes
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (k, v) -> Format.fprintf ppf "  outcome %-12s %d@." k v);
  if s.http_requests > 0 then
    Format.fprintf ppf "http requests      %d (%d errors)@." s.http_requests
      s.http_errors;
  if Hist.n s.sojourn_hist > 0 then
    Format.fprintf ppf "request sojourn    %a@." Hist.pp s.sojourn_hist;
  Format.fprintf ppf "span latency       %a@." Hist.pp s.span_hist;
  Format.fprintf ppf "walk latency       %a@." Hist.pp s.walk_hist;
  Format.fprintf ppf "first-access lat.  %a@." Hist.pp m.first_access_hist
