(* Metrics: a sink subscriber that folds the event stream into
   per-component counters and latency histograms. Harnesses and the
   SWIFI campaign read these instead of keeping private counters.
   Every event of every run passes through [feed_raw], so the per-cid
   tables are [Inttbl]s bumped in one probe, the per-outcome one a
   [Strtbl], and the open spans a map that allocates nothing per span:
   no polymorphic hash or compare, and no boxing on an invocation. *)

module Inttbl = Sg_util.Inttbl
module Strtbl = Sg_util.Strtbl

(* Open spans, span id -> begin ns: linear probing over unboxed arrays,
   with backward-shift deletion, so a begin and its end allocate nothing
   once the table has grown to the number of spans open at once. Span
   ids are dense, so the low bits spread them. *)
module Spans = struct
  type t = {
    mutable keys : int array;
    mutable times : int array;
    mutable used : Bytes.t;  (* '\001' where a slot holds a span *)
    mutable n : int;
  }

  let make cap =
    { keys = Array.make cap 0; times = Array.make cap 0;
      used = Bytes.make cap '\000'; n = 0 }

  let create () = make 64
  let[@inline] used t i = Bytes.unsafe_get t.used i <> '\000'
  let time t i = t.times.(i)

  (* top-level loops: a local one would capture, and allocate, a closure *)
  let rec probe t span m i =
    if (not (used t i)) || t.keys.(i) = span then i
    else probe t span m ((i + 1) land m)

  (* the slot holding [span], or the empty slot where it would go *)
  let slot t span =
    let m = Array.length t.keys - 1 in
    probe t span m (span land m)

  let rec set t span at_ns =
    let i = slot t span in
    if used t i then t.times.(i) <- at_ns
    else if 2 * (t.n + 1) > Array.length t.keys then begin
      let keys = t.keys and times = t.times and was_used = t.used in
      let bigger = make (2 * Array.length keys) in
      t.keys <- bigger.keys;
      t.times <- bigger.times;
      t.used <- bigger.used;
      t.n <- 0;
      Array.iteri
        (fun j key -> if Bytes.get was_used j <> '\000' then set t key times.(j))
        keys;
      set t span at_ns
    end
    else begin
      t.keys.(i) <- span;
      t.times.(i) <- at_ns;
      Bytes.unsafe_set t.used i '\001';
      t.n <- t.n + 1
    end

  (* backward shift: pull each later entry of the probe run into the
     hole unless its home slot lies cyclically in (hole, j] *)
  let rec shift t m hole j =
    let j = (j + 1) land m in
    if not (used t j) then Bytes.unsafe_set t.used hole '\000'
    else if (j - (t.keys.(j) land m)) land m >= (j - hole) land m then begin
      t.keys.(hole) <- t.keys.(j);
      t.times.(hole) <- t.times.(j);
      shift t m j j
    end
    else shift t m hole j

  let remove_at t i =
    t.n <- t.n - 1;
    shift t (Array.length t.keys - 1) i i
end

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
  mutable reflects_total : int;
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
  mutable http_reqs_total : int;  (* open-loop request spans (Http_req) *)
  sojourn_hist : Hist.t;  (* Http_req finish - arrival, queueing included *)
  span_hist : Hist.t;
  walk_hist : Hist.t;
  first_access_hist : Hist.t;
  reboot_cost_hist : Hist.t;
  (* transient state for duration tracking *)
  open_spans : Spans.t;
  open_walks : (int * int * int) list ref Inttbl.t;
      (* tid -> (client, server, begin-ns) stack; ends are matched by
         pair, not blind LIFO, so overlapping walks of different pairs
         on one thread (and interrupted walks that never end) cannot
         cross-charge durations *)
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
    reflects_total = 0;
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
    http_reqs_total = 0;
    sojourn_hist = Hist.create ();
    span_hist = Hist.create ();
    walk_hist = Hist.create ();
    first_access_hist = Hist.create ();
    reboot_cost_hist = Hist.create ();
    open_spans = Spans.create ();
    open_walks = Inttbl.create 16;
    first_access_pending = Inttbl.create 8;
  }

let get_str tbl key =
  match Strtbl.find_opt tbl key with Some n -> n | None -> 0

let feed_raw t ~at_ns ~tid kind =
  match kind with
  | Event.Span_begin { span; server; _ } ->
      t.invocations_total <- t.invocations_total + 1;
      Inttbl.add t.invocations_by_server server 1;
      Spans.set t.open_spans span at_ns
  | Event.Span_end { span; server; ok } ->
      (* a duplicate begin replaced the time; an unknown end is ignored *)
      let i = Spans.slot t.open_spans span in
      if Spans.used t.open_spans i then begin
        let t0 = Spans.time t.open_spans i in
        Spans.remove_at t.open_spans i;
        if ok then Hist.add t.span_hist (at_ns - t0)
      end;
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
      Hist.add t.reboot_cost_hist cost_ns;
      Inttbl.replace t.first_access_pending cid at_ns
  | Event.Divert _ -> t.diverts_total <- t.diverts_total + 1
  | Event.Upcall _ -> t.upcalls_total <- t.upcalls_total + 1
  | Event.Reflect _ -> t.reflects_total <- t.reflects_total + 1
  | Event.Walk_begin { client; server; _ } ->
      t.walks_total <- t.walks_total + 1;
      Inttbl.add t.walks_by_client client 1;
      Inttbl.add t.walks_by_server server 1;
      let stack =
        match Inttbl.find_opt t.open_walks tid with
        | Some s -> s
        | None ->
            let s = ref [] in
            Inttbl.replace t.open_walks tid s;
            s
      in
      stack := (client, server, at_ns) :: !stack
  | Event.Walk_end { client; server; ok } -> (
      match Inttbl.find_opt t.open_walks tid with
      | Some stack -> (
          (* pop the innermost walk of this client/server pair, leaving
             any non-matching (still-open) walks in place *)
          let rec split acc = function
            | [] -> None
            | (c, s, t0) :: rest when c = client && s = server ->
                Some (t0, List.rev_append acc rest)
            | w :: rest -> split (w :: acc) rest
          in
          match split [] !stack with
          | Some (t0, rest) ->
              stack := rest;
              if ok then Hist.add t.walk_hist (at_ns - t0)
          | None -> ())
      | None -> ())
  | Event.Recover_begin _ | Event.Recover_end _ -> ()
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
  | Event.Http_req { arrival_ns; finish_ns; _ } ->
      t.http_reqs_total <- t.http_reqs_total + 1;
      Hist.add t.sojourn_hist (finish_ns - arrival_ns)
  | Event.Note _ -> ()

let feed t (e : Event.t) =
  feed_raw t ~at_ns:e.Event.at_ns ~tid:e.Event.tid e.Event.kind

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
let reflects t = t.reflects_total
let storage_ops t = t.storage_ops_total
let injections t = t.injections_total
let perturbs t = t.perturbs_total
let perturbs_in_walk t = t.perturbs_in_walk
let outcome_count t s = get_str t.outcomes s
let reboot_ns_total t = t.reboot_ns_total
let http_requests t = t.http_requests
let http_errors t = t.http_errors
let http_reqs t = t.http_reqs_total
let sojourn_hist t = t.sojourn_hist
let span_hist t = t.span_hist
let walk_hist t = t.walk_hist
let first_access_hist t = t.first_access_hist
let reboot_cost_hist t = t.reboot_cost_hist

let pp_summary ppf t =
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
  if t.http_reqs_total > 0 then
    Format.fprintf ppf "request sojourn    %a@." Hist.pp t.sojourn_hist;
  Format.fprintf ppf "span latency       %a@." Hist.pp t.span_hist;
  Format.fprintf ppf "walk latency       %a@." Hist.pp t.walk_hist;
  Format.fprintf ppf "first-access lat.  %a@." Hist.pp t.first_access_hist
