(* Recovery-episode stitching: a pure fold over the structured event
   stream that groups each detected fault with everything recovery did
   about it — the micro-reboot, thread diversion, upcalls/reflections,
   the descriptor walks and recover-all chains it triggered, and the
   replay spans into the rebooted server — terminating at the first
   successful post-reboot invocation of that server (the paper's
   first-access recovery latency).

   Each episode is a small causal DAG. Nodes are the recovery
   activities; edges point from an activity to the activities it
   enables (detect -> reboot -> walks -> replay spans). Node ids are
   assigned in stream order, so every dependency refers to an earlier
   id and the node list is already topologically sorted — what
   {!Profile} relies on for its critical-path scan. *)

module Inttbl = Sg_util.Inttbl

type node_kind =
  | N_detect of { detector : string }
  | N_reboot of { epoch : int; image_kb : int; cost_ns : int }
  | N_divert of { victim : int }
  | N_upcall of { fn : string }
  | N_reflect of { fn : string }
  | N_walk of {
      client : int;
      iface : string;
      desc : int;
      reason : Event.reason;
      ok : bool;
    }
  | N_recover of { client : int; iface : string; ok : bool }
  | N_span of { span : int; client : int; fn : string; ok : bool }

type node = {
  n_id : int;  (* episode-local, dense, in stream order *)
  n_kind : node_kind;
  n_tid : int;
  n_start_ns : int;
  n_end_ns : int;  (* = n_start_ns for instantaneous activities *)
  n_deps : int list;  (* ids of nodes this one causally depends on *)
}

type trigger = {
  tr_fn : string;
  tr_reg : string;
  tr_bit : int;
  tr_outcome : string;
}

type t = {
  ep_cid : int;  (* the crashed component *)
  ep_seq : int;  (* stream seq of the Crash event *)
  ep_detect_ns : int;
  ep_trigger : trigger option;  (* the SWIFI injection, when one preceded *)
  ep_complete : bool;  (* first post-reboot success was observed *)
  ep_end_ns : int;
      (* completion of the first successful post-reboot invocation, or —
         for an incomplete episode — the end of its last activity *)
  ep_nodes : node list;  (* id order = stream order = topological *)
}

let node_label n =
  match n.n_kind with
  | N_detect { detector } -> Printf.sprintf "detect(%s)" detector
  | N_reboot { image_kb; epoch; _ } ->
      Printf.sprintf "reboot(%dkB,epoch %d)" image_kb epoch
  | N_divert { victim } -> Printf.sprintf "divert(tid %d)" victim
  | N_upcall { fn } -> Printf.sprintf "upcall(%s)" fn
  | N_reflect { fn } -> Printf.sprintf "reflect(%s)" fn
  | N_walk { client; desc; reason; _ } ->
      Printf.sprintf "walk(%d desc=%d %s)" client desc
        (Event.reason_to_string reason)
  | N_recover { client; iface; _ } ->
      Printf.sprintf "recover-all(%d %s)" client iface
  | N_span { fn; client; _ } -> Printf.sprintf "span(%s from %d)" fn client

let duration_ns n = n.n_end_ns - n.n_start_ns

(* ---------- the stitching fold ---------- *)

(* per-episode mutable build state *)
type open_episode = {
  oe_cid : int;
  oe_seq : int;
  oe_detect_ns : int;
  oe_trigger : trigger option;
  mutable oe_nodes : node array;  (* indexed by id; [oe_n] are in use *)
  mutable oe_n : int;
  mutable oe_detect_id : int;
  mutable oe_reboot : int option;  (* reboot node id once seen *)
  mutable oe_last_ns : int;  (* latest activity end attached so far *)
  oe_walks : int list ref Inttbl.t;  (* tid -> open walk node ids *)
  oe_recovers : int list ref Inttbl.t;  (* tid -> open recover ids *)
  oe_spans : int Inttbl.t;  (* open replay span id -> node id *)
}

type builder = {
  b_open : open_episode Inttbl.t;  (* cid -> episode being built *)
  b_inject : trigger Inttbl.t;  (* cid -> most recent injection *)
  mutable b_done : t list;  (* newest first *)
}

let builder () =
  { b_open = Inttbl.create 4; b_inject = Inttbl.create 4; b_done = [] }

(* [b_open] is probed on every event of a stream, most often for a
   component with no episode open: [open_of] answers [no_episode] then,
   without boxing an option *)
let no_episode =
  {
    oe_cid = -1;
    oe_seq = -1;
    oe_detect_ns = 0;
    oe_trigger = None;
    oe_nodes = [||];
    oe_n = 0;
    oe_detect_id = 0;
    oe_reboot = None;
    oe_last_ns = 0;
    oe_walks = Inttbl.create 1;
    oe_recovers = Inttbl.create 1;
    oe_spans = Inttbl.create 1;
  }

let open_of b cid = Inttbl.find_or b.b_open cid no_episode

let stack_of tbl tid =
  match Inttbl.find_opt tbl tid with
  | Some s -> s
  | None ->
      let s = ref [] in
      Inttbl.replace tbl tid s;
      s

(* materialize a node; returns its id. [placeholder] nodes (open walks /
   recover-alls / spans) are patched in place when their end arrives.
   Ids are dense, so the nodes live in a doubling array indexed by id. *)
let push oe ~tid ~start_ns ~end_ns ~deps kind =
  let id = oe.oe_n in
  let n =
    { n_id = id; n_kind = kind; n_tid = tid; n_start_ns = start_ns;
      n_end_ns = end_ns; n_deps = deps }
  in
  let cap = Array.length oe.oe_nodes in
  if id = cap then begin
    (* seed the fresh cells with [n]: no dummy node needed *)
    let a = Array.make (if cap = 0 then 8 else 2 * cap) n in
    Array.blit oe.oe_nodes 0 a 0 id;
    oe.oe_nodes <- a
  end;
  oe.oe_nodes.(id) <- n;
  oe.oe_n <- id + 1;
  if end_ns > oe.oe_last_ns then oe.oe_last_ns <- end_ns;
  id

let patch oe id f =
  let n = f oe.oe_nodes.(id) in
  oe.oe_nodes.(id) <- n;
  if n.n_end_ns > oe.oe_last_ns then oe.oe_last_ns <- n.n_end_ns

(* the causal parent of fresh recovery work: the reboot once it exists,
   the detection before that *)
let anchor oe =
  match oe.oe_reboot with Some id -> id | None -> oe.oe_detect_id

(* innermost open walk on this thread, if any — replay spans that run
   inside a walk depend on it, not directly on the reboot *)
let enclosing_walk oe tid =
  match Inttbl.find_opt oe.oe_walks tid with
  | Some { contents = id :: _ } -> Some id
  | _ -> None

let seal ~complete ~end_ns oe =
  {
    ep_cid = oe.oe_cid;
    ep_seq = oe.oe_seq;
    ep_detect_ns = oe.oe_detect_ns;
    ep_trigger = oe.oe_trigger;
    ep_complete = complete;
    ep_end_ns = (if complete then end_ns else max oe.oe_last_ns oe.oe_detect_ns);
    ep_nodes = List.init oe.oe_n (Array.get oe.oe_nodes);
  }

(* activities still in flight when the first access lands (the enclosing
   walk, racing retries) were busy until at least that point: truncate
   them at the episode end rather than recording a zero duration. Each
   patch raises one node's end to at least [end_ns], so they commute
   and the tables' order does not matter. *)
let truncate_open oe ~end_ns =
  let extend id = patch oe id (fun n -> { n with n_end_ns = max n.n_end_ns end_ns }) in
  let patch_stack tbl = Inttbl.fold (fun _ stack () -> List.iter extend !stack) tbl () in
  patch_stack oe.oe_walks;
  patch_stack oe.oe_recovers;
  Inttbl.fold (fun _ id () -> extend id) oe.oe_spans ()

let close b ~complete ~end_ns oe =
  Inttbl.remove b.b_open oe.oe_cid;
  if complete then truncate_open oe ~end_ns;
  b.b_done <- seal ~complete ~end_ns oe :: b.b_done

let close_all b =
  let open_ = Inttbl.fold (fun _ oe acc -> oe :: acc) b.b_open [] in
  (* detection order, whatever the table's order *)
  List.iter
    (close b ~complete:false ~end_ns:0)
    (List.sort (fun a bb -> compare a.oe_seq bb.oe_seq) open_)

let feed_raw b ~seq ~at_ns:at ~tid kind =
  match kind with
  | Event.Inject { cid; fn; reg; bit; outcome } ->
      Inttbl.replace b.b_inject cid
        { tr_fn = fn; tr_reg = reg; tr_bit = bit; tr_outcome = outcome }
  | Event.Crash { cid; detector } ->
      (* a re-crash before the previous episode reached its first access
         abandons it (incomplete) and starts a new one; activities still
         open (e.g. the walk the re-crash interrupted) were busy until
         the second fault landed, so truncate them there instead of
         leaving zero durations — otherwise a crash-during-recovery
         double fault mis-attributes the interrupted walk *)
      (match open_of b cid with
      | oe when oe == no_episode -> ()
      | oe ->
          truncate_open oe ~end_ns:at;
          close b ~complete:false ~end_ns:0 oe);
      let oe =
        {
          oe_cid = cid;
          oe_seq = seq;
          oe_detect_ns = at;
          oe_trigger =
            (match Inttbl.find_opt b.b_inject cid with
            | Some tr ->
                Inttbl.remove b.b_inject cid;
                Some tr
            | None -> None);
          oe_nodes = [||];
          oe_n = 0;
          oe_detect_id = 0;
          oe_reboot = None;
          oe_last_ns = at;
          oe_walks = Inttbl.create 4;
          oe_recovers = Inttbl.create 4;
          oe_spans = Inttbl.create 8;
        }
      in
      oe.oe_detect_id <-
        push oe ~tid ~start_ns:at ~end_ns:at ~deps:[] (N_detect { detector });
      Inttbl.replace b.b_open cid oe
  | Event.Reboot { cid; epoch; image_kb; cost_ns } -> (
      match open_of b cid with
      | oe when oe == no_episode ->
          ()  (* stream prefix: a reboot whose crash we never saw *)
      | oe ->
          let id =
            push oe ~tid ~start_ns:at ~end_ns:(at + cost_ns)
              ~deps:[ oe.oe_detect_id ]
              (N_reboot { epoch; image_kb; cost_ns })
          in
          oe.oe_reboot <- Some id)
  | Event.Divert { cid; victim } -> (
      match open_of b cid with
      | oe when oe == no_episode -> ()
      | oe ->
          ignore
            (push oe ~tid ~start_ns:at ~end_ns:at ~deps:[ anchor oe ]
               (N_divert { victim })))
  | Event.Upcall { cid; fn } -> (
      match open_of b cid with
      | oe when oe == no_episode -> ()
      | oe ->
          ignore
            (push oe ~tid ~start_ns:at ~end_ns:at ~deps:[ anchor oe ]
               (N_upcall { fn })))
  | Event.Reflect { cid; fn } -> (
      match open_of b cid with
      | oe when oe == no_episode -> ()
      | oe ->
          ignore
            (push oe ~tid ~start_ns:at ~end_ns:at ~deps:[ anchor oe ]
               (N_reflect { fn })))
  | Event.Walk_begin { client; server; iface; desc; reason } -> (
      match open_of b server with
      | oe when oe == no_episode -> ()
      | oe ->
          (* a nested walk depends on the walk it runs inside; a
             top-level walk depends on the reboot *)
          let deps =
            match enclosing_walk oe tid with
            | Some w -> [ w ]
            | None -> [ anchor oe ]
          in
          let id =
            push oe ~tid ~start_ns:at ~end_ns:at ~deps
              (N_walk { client; iface; desc; reason; ok = false })
          in
          let stack = stack_of oe.oe_walks tid in
          stack := id :: !stack)
  | Event.Walk_end { server; ok; _ } -> (
      match open_of b server with
      | oe when oe == no_episode -> ()
      | oe -> (
          match stack_of oe.oe_walks tid with
          | { contents = id :: rest } as stack ->
              stack := rest;
              patch oe id (fun n ->
                  let kind =
                    match n.n_kind with
                    | N_walk w -> N_walk { w with ok }
                    | k -> k
                  in
                  { n with n_end_ns = at; n_kind = kind })
          | _ -> ()))
  | Event.Recover_begin { client; server; iface } -> (
      match open_of b server with
      | oe when oe == no_episode -> ()
      | oe ->
          let id =
            push oe ~tid ~start_ns:at ~end_ns:at ~deps:[ anchor oe ]
              (N_recover { client; iface; ok = false })
          in
          let stack = stack_of oe.oe_recovers tid in
          stack := id :: !stack)
  | Event.Recover_end { server; _ } -> (
      match open_of b server with
      | oe when oe == no_episode -> ()
      | oe -> (
          match stack_of oe.oe_recovers tid with
          | { contents = id :: rest } as stack ->
              stack := rest;
              patch oe id (fun n ->
                  let kind =
                    match n.n_kind with
                    | N_recover r -> N_recover { r with ok = true }
                    | k -> k
                  in
                  { n with n_end_ns = at; n_kind = kind })
          | _ -> ()))
  | Event.Span_begin { span; client; server; fn } -> (
      (* replay spans: invocations entering the rebooted server after
         its micro-reboot, i.e. the retries racing to first access *)
      match open_of b server with
      | oe when oe == no_episode -> ()
      | oe when oe.oe_reboot = None -> ()
      | oe ->
          let deps =
            match enclosing_walk oe tid with
            | Some w -> [ w ]
            | None -> [ anchor oe ]
          in
          let id =
            push oe ~tid ~start_ns:at ~end_ns:at ~deps
              (N_span { span; client; fn; ok = false })
          in
          Inttbl.replace oe.oe_spans span id)
  | Event.Span_end { span; server; ok } -> (
      match open_of b server with
      | oe when oe == no_episode -> ()
      | oe -> (
          match Inttbl.find_or oe.oe_spans span (-1) with
          | -1 -> ()
          | id ->
              Inttbl.remove oe.oe_spans span;
              patch oe id (fun n ->
                  let kind =
                    match n.n_kind with
                    | N_span s -> N_span { s with ok }
                    | k -> k
                  in
                  { n with n_end_ns = at; n_kind = kind });
              (* the first successful post-reboot invocation completes
                 the recovery: the component is provably serving again *)
              if ok then close b ~complete:true ~end_ns:at oe))
  | Event.Note { name = "sys-reboot"; _ } ->
      (* chunk boundary: the simulated system restarts from scratch, so
         no in-flight recovery can complete across it *)
      close_all b;
      Inttbl.clear b.b_inject
  | Event.Storage_op _ | Event.Http _ | Event.Http_req _ | Event.Perturb _
  | Event.Note _ ->
      ()

let feed b (e : Event.t) =
  feed_raw b ~seq:e.Event.seq ~at_ns:e.Event.at_ns ~tid:e.Event.tid e.Event.kind

let attach b sink = Sink.subscribe_fold sink (feed_raw b)

let finish b =
  close_all b;
  let eps = List.rev b.b_done in
  (* detection order: the stream is seq-sorted, but a re-crash can seal
     an older episode after a younger one's completion *)
  List.sort (fun a bb -> compare a.ep_seq bb.ep_seq) eps

let of_events events =
  let b = builder () in
  List.iter (feed b) events;
  finish b

let span_ns ep = ep.ep_end_ns - ep.ep_detect_ns

(* Bound checking: only complete episodes have a meaningful span (an
   incomplete one was abandoned mid-recovery, e.g. by a re-crash or the
   end of the trace, so its span undercounts). *)

let over_bound_by ~bound_of eps =
  List.filter
    (fun ep ->
      ep.ep_complete
      &&
      match bound_of ep.ep_cid with
      | Some b -> span_ns ep > b
      | None -> false)
    eps
