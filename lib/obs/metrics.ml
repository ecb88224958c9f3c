(* Metrics: a sink subscriber that folds the event stream into
   per-component counters and the first-access histogram. Harnesses and
   the SWIFI campaign read these instead of keeping private counters.
   Every event of every run passes through [feed_raw], so the per-cid
   tables are [Inttbl]s bumped in one probe and the per-outcome one a
   [Strtbl]: no polymorphic hash or compare, no per-span or per-walk
   state, and no boxing on an invocation. Span, walk and sojourn
   latencies have no reader on a live run; [latencies] works them out
   from a held stream. *)

module Inttbl = Sg_util.Inttbl
module Strtbl = Sg_util.Strtbl

type t = {
  mutable invocations_total : int;
  invocations_by_server : int Inttbl.t;
  mutable spans_ok : int;
  mutable spans_fault : int;
  mutable crashes_total : int;
  crashes_by_cid : int Inttbl.t;
  mutable reboots_total : int;
  reboots_by_cid : int Inttbl.t;
  mutable reboot_ns_total : int;
  mutable upcalls_total : int;
  mutable diverts_total : int;
  mutable walks_total : int;
  walks_by_client : int Inttbl.t;
  walks_by_server : int Inttbl.t;
  mutable storage_ops_total : int;
  mutable injections_total : int;
  mutable perturbs_total : int;
  mutable perturbs_in_walk : int;
  outcomes : int Strtbl.t;
  mutable http_requests : int;
  mutable http_errors : int;
  first_access_hist : Hist.t;
  first_access_pending : int Inttbl.t;  (* server cid -> reboot ns *)
}

let create () =
  {
    invocations_total = 0;
    invocations_by_server = Inttbl.create 16;
    spans_ok = 0;
    spans_fault = 0;
    crashes_total = 0;
    crashes_by_cid = Inttbl.create 16;
    reboots_total = 0;
    reboots_by_cid = Inttbl.create 16;
    reboot_ns_total = 0;
    upcalls_total = 0;
    diverts_total = 0;
    walks_total = 0;
    walks_by_client = Inttbl.create 16;
    walks_by_server = Inttbl.create 16;
    storage_ops_total = 0;
    injections_total = 0;
    perturbs_total = 0;
    perturbs_in_walk = 0;
    outcomes = Strtbl.create 8;
    http_requests = 0;
    http_errors = 0;
    first_access_hist = Hist.create ();
    first_access_pending = Inttbl.create 8;
  }

let get_str tbl key =
  match Strtbl.find_opt tbl key with Some n -> n | None -> 0

let feed_raw t ~seq:_ ~at_ns ~tid:_ kind =
  match kind with
  | Event.Span_begin { server; _ } ->
      t.invocations_total <- t.invocations_total + 1;
      Inttbl.add t.invocations_by_server server 1
  | Event.Span_end { server; ok; _ } ->
      if ok then begin
        t.spans_ok <- t.spans_ok + 1;
        if Inttbl.length t.first_access_pending > 0 then
          match Inttbl.find_opt t.first_access_pending server with
          | Some reboot_ns ->
              Inttbl.remove t.first_access_pending server;
              Hist.add t.first_access_hist (at_ns - reboot_ns)
          | None -> ()
      end
      else t.spans_fault <- t.spans_fault + 1
  | Event.Crash { cid; _ } ->
      t.crashes_total <- t.crashes_total + 1;
      Inttbl.add t.crashes_by_cid cid 1
  | Event.Reboot { cid; cost_ns; _ } ->
      t.reboots_total <- t.reboots_total + 1;
      Inttbl.add t.reboots_by_cid cid 1;
      t.reboot_ns_total <- t.reboot_ns_total + cost_ns;
      Inttbl.replace t.first_access_pending cid at_ns
  | Event.Divert _ -> t.diverts_total <- t.diverts_total + 1
  | Event.Upcall _ -> t.upcalls_total <- t.upcalls_total + 1
  | Event.Walk_begin { client; server; _ } ->
      t.walks_total <- t.walks_total + 1;
      Inttbl.add t.walks_by_client client 1;
      Inttbl.add t.walks_by_server server 1
  | Event.Storage_op _ -> t.storage_ops_total <- t.storage_ops_total + 1
  | Event.Inject { outcome; _ } ->
      t.injections_total <- t.injections_total + 1;
      Strtbl.replace t.outcomes outcome (get_str t.outcomes outcome + 1)
  | Event.Perturb { in_walk; _ } ->
      t.perturbs_total <- t.perturbs_total + 1;
      if in_walk then t.perturbs_in_walk <- t.perturbs_in_walk + 1
  | Event.Http { status; _ } ->
      t.http_requests <- t.http_requests + 1;
      if status >= 400 then t.http_errors <- t.http_errors + 1
  | Event.Reflect _ | Event.Walk_end _ | Event.Recover_begin _
  | Event.Recover_end _ | Event.Http_req _ | Event.Note _ ->
      ()

let feed t (e : Event.t) =
  feed_raw t ~seq:e.Event.seq ~at_ns:e.Event.at_ns ~tid:e.Event.tid e.Event.kind

let attach t sink = Sink.subscribe_fold sink (feed_raw t)

let get tbl key = Inttbl.find_or tbl key 0

let invocations ?cid t =
  match cid with
  | None -> t.invocations_total
  | Some c -> get t.invocations_by_server c

let reboots ?cid t =
  match cid with None -> t.reboots_total | Some c -> get t.reboots_by_cid c

let crashes ?cid t =
  match cid with None -> t.crashes_total | Some c -> get t.crashes_by_cid c

let walks ?client ?server t =
  match (client, server) with
  | None, None -> t.walks_total
  | Some c, None -> get t.walks_by_client c
  | None, Some s -> get t.walks_by_server s
  | Some _, Some _ -> invalid_arg "Metrics.walks: give client or server, not both"

let spans_ok t = t.spans_ok
let spans_fault t = t.spans_fault
let upcalls t = t.upcalls_total
let diverts t = t.diverts_total
let storage_ops t = t.storage_ops_total
let injections t = t.injections_total
let perturbs t = t.perturbs_total
let perturbs_in_walk t = t.perturbs_in_walk
let outcome_count t s = get_str t.outcomes s
let reboot_ns_total t = t.reboot_ns_total
let http_requests t = t.http_requests
let http_errors t = t.http_errors
let first_access_hist t = t.first_access_hist

(* ---------- latencies of a held stream ---------- *)

type latencies = { span_hist : Hist.t; walk_hist : Hist.t; sojourn_hist : Hist.t }

(* One pass in stream order, so each histogram sees its samples in the
   order a live fold would have added them. A duplicate span begin
   replaces the begin time and an unknown end is ignored; only [ok]
   ends are recorded. A walk end closes the innermost open walk of the
   same (client, server) on its thread, so overlapping walks of
   different pairs cannot cross-charge, and walks it does not match
   stay open. *)
let latencies events =
  let l = { span_hist = Hist.create (); walk_hist = Hist.create (); sojourn_hist = Hist.create () } in
  let spans = Inttbl.create 64 and walks = Inttbl.create 16 in
  let rec pop client server acc = function
    | [] -> None
    | (c, s, t0) :: rest when c = client && s = server ->
        Some (t0, List.rev_append acc rest)
    | w :: rest -> pop client server (w :: acc) rest
  in
  List.iter
    (fun (e : Event.t) ->
      let at = e.Event.at_ns and tid = e.Event.tid in
      match e.Event.kind with
      | Event.Span_begin { span; _ } -> Inttbl.replace spans span at
      | Event.Span_end { span; ok; _ } -> (
          match Inttbl.find_opt spans span with
          | Some t0 ->
              Inttbl.remove spans span;
              if ok then Hist.add l.span_hist (at - t0)
          | None -> ())
      | Event.Walk_begin { client; server; _ } ->
          let open_ = Option.value ~default:[] (Inttbl.find_opt walks tid) in
          Inttbl.replace walks tid ((client, server, at) :: open_)
      | Event.Walk_end { client; server; ok } -> (
          let open_ = Option.value ~default:[] (Inttbl.find_opt walks tid) in
          match pop client server [] open_ with
          | Some (t0, rest) ->
              Inttbl.replace walks tid rest;
              if ok then Hist.add l.walk_hist (at - t0)
          | None -> ())
      | Event.Http_req { arrival_ns; finish_ns; _ } ->
          Hist.add l.sojourn_hist (finish_ns - arrival_ns)
      | _ -> ())
    events;
  l

let pp_summary events ppf t =
  let l = latencies events in
  Format.fprintf ppf "invocations        %d@." t.invocations_total;
  Format.fprintf ppf "  ok / faulted     %d / %d@." t.spans_ok t.spans_fault;
  Format.fprintf ppf "crashes            %d@." t.crashes_total;
  Format.fprintf ppf "micro-reboots      %d (%d ns)@." t.reboots_total
    t.reboot_ns_total;
  Format.fprintf ppf "diverted threads   %d@." t.diverts_total;
  Format.fprintf ppf "upcalls            %d@." t.upcalls_total;
  Format.fprintf ppf "descriptor walks   %d@." t.walks_total;
  Format.fprintf ppf "storage ops        %d@." t.storage_ops_total;
  Format.fprintf ppf "injections         %d@." t.injections_total;
  if t.perturbs_total > 0 then
    Format.fprintf ppf "perturbations      %d (%d during walks)@."
      t.perturbs_total t.perturbs_in_walk;
  Strtbl.fold (fun k v acc -> (k, v) :: acc) t.outcomes []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iter (fun (k, v) -> Format.fprintf ppf "  outcome %-12s %d@." k v);
  if t.http_requests > 0 then
    Format.fprintf ppf "http requests      %d (%d errors)@." t.http_requests
      t.http_errors;
  if Hist.n l.sojourn_hist > 0 then
    Format.fprintf ppf "request sojourn    %a@." Hist.pp l.sojourn_hist;
  Format.fprintf ppf "span latency       %a@." Hist.pp l.span_hist;
  Format.fprintf ppf "walk latency       %a@." Hist.pp l.walk_hist;
  Format.fprintf ppf "first-access lat.  %a@." Hist.pp t.first_access_hist
