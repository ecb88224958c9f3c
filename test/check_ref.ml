(* The checker as it stood before its per-thread rewrite, kept verbatim
   as the reference of test_obs's differential test: both must report the
   same violations, in the same order, on every stream. *)

module Event = Sg_obs.Event

(* Trace-invariant checker: validates a full event stream (retention
   [All]) against the recovery-ordering rules of the paper. The checker
   is a single forward fold, fed live from a sink or over a held list;
   each rule keeps a small amount of state keyed by component or
   thread. *)

module Inttbl = Sg_util.Inttbl

type violation = { at_seq : int; rule : string; msg : string }

let pp_violation ppf v =
  Format.fprintf ppf "#%d [%s] %s" v.at_seq v.rule v.msg

type span_info = { si_server : int; si_tid : int; si_begun_failed : bool }

type expectation =
  | Expect_crash of int  (* failstop: next event on tid is Crash cid *)
  | Expect_crash_or_fault of int  (* hang: Crash cid or a faulted span end *)
  | Expect_fault  (* segfault/propagated: next event on tid ends a span faulted *)

type t = {
  ondemand : bool;  (* [~mode:`Ondemand]: no eager walk, no recover-all *)
  mutable last_seq : int;
  mutable last_at : int;
  failed : string Inttbl.t;  (* cid -> detector while failed *)
  spans : span_info Inttbl.t;  (* open span id -> info *)
  span_stacks : int list ref Inttbl.t;  (* tid -> open span ids, LIFO *)
  pending_divert : unit Inttbl.t Inttbl.t;
      (* tid -> span ids that must unwind faulted before the tid begins
         a new span *)
  walk_stacks : (int * int) list ref Inttbl.t;
      (* tid -> open (client, server) walks, LIFO *)
  recover_depth : int ref Inttbl.t;  (* tid -> open recover episodes *)
  expects : expectation Inttbl.t;  (* tid -> pending injection fate *)
  mutable violations : violation list;  (* newest first *)
}

let create ?mode () =
  {
    ondemand = mode = Some `Ondemand;
    last_seq = -1;
    last_at = 0;
    failed = Inttbl.create 8;
    spans = Inttbl.create 64;
    span_stacks = Inttbl.create 16;
    pending_divert = Inttbl.create 8;
    walk_stacks = Inttbl.create 8;
    recover_depth = Inttbl.create 8;
    expects = Inttbl.create 8;
    violations = [];
  }

let report st ~seq rule fmt =
  Printf.ksprintf
    (fun msg -> st.violations <- { at_seq = seq; rule; msg } :: st.violations)
    fmt

(* Every span event probes these tables; [Inttbl.find_or] against a
   sentinel no table ever holds answers without boxing an option. The
   sentinels are built at module load and never handed out. *)
let no_span = { si_server = -1; si_tid = -1; si_begun_failed = false }
let no_pending : unit Inttbl.t = Inttbl.create 1
let no_span_stack : int list ref = ref []
let no_walk_stack : (int * int) list ref = ref []
let no_depth = ref 0

(* the thread's entry, created on first use *)
let entry_of tbl ~none tid =
  let s = Inttbl.find_or tbl tid none in
  if s != none then s
  else begin
    let s = ref !none in
    Inttbl.replace tbl tid s;
    s
  end

let span_stack st tid = entry_of st.span_stacks ~none:no_span_stack tid
let walk_stack st tid = entry_of st.walk_stacks ~none:no_walk_stack tid
let depth_of st tid = entry_of st.recover_depth ~none:no_depth tid

(* the injector's fate expectation for this thread, resolved by the
   current event: a detected crash of the target, or the span unwinding
   faulted, depending on outcome class *)
let resolve_expectation st ~seq ~tid (kind : Event.kind) =
  match Inttbl.find_opt st.expects tid with
  | None -> ()
  | Some exp -> (
      Inttbl.remove st.expects tid;
      let ok =
        match (exp, kind) with
        | Expect_crash want, Event.Crash { cid; _ } -> cid = want
        | Expect_crash_or_fault want, Event.Crash { cid; _ } -> cid = want
        | Expect_crash_or_fault _, Event.Span_end { ok = false; _ } -> true
        | Expect_fault, Event.Span_end { ok = false; _ } -> true
        | _ -> false
      in
      if not ok then
        report st ~seq "inject-accounting"
          "tid %d: activated injection not followed by its detection \
           (next event: %s)"
          tid (Event.kind_name kind))

let feed st (e : Event.t) =
  let seq = e.Event.seq and tid = e.Event.tid in
  (* monotone sequence numbers and virtual timestamps *)
  if seq <= st.last_seq then
    report st ~seq "monotone-time" "seq %d after seq %d" seq st.last_seq;
  if e.Event.at_ns < st.last_at then
    report st ~seq "monotone-time" "virtual time went backwards: %d ns after %d ns"
      e.Event.at_ns st.last_at;
  st.last_seq <- seq;
  st.last_at <- max st.last_at e.Event.at_ns;
  resolve_expectation st ~seq ~tid e.Event.kind;
  match e.Event.kind with
  | Event.Crash { cid; detector } ->
      (match Inttbl.find_opt st.failed cid with
      | Some prev ->
          report st ~seq "crash-reboot-alternation"
            "component %d crashed (%s) while already failed (%s) without a \
             micro-reboot in between"
            cid detector prev
      | None -> ());
      Inttbl.replace st.failed cid detector
  | Event.Reboot { cid; _ } ->
      if not (Inttbl.mem st.failed cid) then
        report st ~seq "crash-reboot-alternation"
          "component %d micro-rebooted without a preceding detected crash" cid;
      Inttbl.remove st.failed cid
  | Event.Span_begin { span; server; _ } ->
      (let pending = Inttbl.find_or st.pending_divert tid no_pending in
       if Inttbl.length pending > 0 then
         report st ~seq "divert-unwind"
           "tid %d began span %d with %d diverted span(s) still open" tid span
           (Inttbl.length pending));
      if Inttbl.mem st.spans span then
        report st ~seq "span-nesting" "span id %d begun twice" span;
      Inttbl.replace st.spans span
        {
          si_server = server;
          si_tid = tid;
          si_begun_failed = Inttbl.mem st.failed server;
        };
      let stack = span_stack st tid in
      stack := span :: !stack
  | Event.Span_end { span; server; ok } ->
      (match Inttbl.find_or st.spans span no_span with
      | info when info == no_span ->
          report st ~seq "span-nesting" "span %d ended but never begun" span
      | info ->
          Inttbl.remove st.spans span;
          if info.si_tid <> tid then
            report st ~seq "span-nesting"
              "span %d begun on tid %d but ended on tid %d" span info.si_tid tid;
          (* a span that started against (or into) a failed incarnation
             must not complete successfully: recovery requires the
             micro-reboot first *)
          if ok && info.si_begun_failed then
            report st ~seq "no-success-while-failed"
              "span %d into component %d begun while failed but ended ok" span
              server;
          (match span_stack st tid with
          | { contents = top :: rest } as stack when top = span -> stack := rest
          | { contents = top :: _ } ->
              report st ~seq "span-nesting"
                "tid %d ended span %d but its innermost open span is %d" tid
                span top
          | _ ->
              report st ~seq "span-nesting"
                "tid %d ended span %d with no span open" tid span));
      if ok && Inttbl.mem st.failed server then
        report st ~seq "no-success-while-failed"
          "successful invocation of component %d while it is failed \
           (crash not yet followed by its micro-reboot)"
          server;
      let pending = Inttbl.find_or st.pending_divert tid no_pending in
      if Inttbl.mem pending span then begin
        Inttbl.remove pending span;
        if ok then
          report st ~seq "divert-unwind"
            "diverted span %d (tid %d) completed ok instead of unwinding" span
            tid
      end
  | Event.Divert { cid; victim } ->
      (* the victim's open spans into the rebooted component must unwind
         (end faulted) before the victim re-enters any server *)
      let pending =
        match Inttbl.find_opt st.pending_divert victim with
        | Some p -> p
        | None ->
            let p = Inttbl.create 4 in
            Inttbl.replace st.pending_divert victim p;
            p
      in
      List.iter
        (fun span ->
          match Inttbl.find_opt st.spans span with
          | Some info when info.si_server = cid -> Inttbl.replace pending span ()
          | _ -> ())
        !(span_stack st victim)
  | Event.Walk_begin { client; server; reason; _ } -> (
      let stack = walk_stack st tid in
      stack := (client, server) :: !stack;
      let d = !(depth_of st tid) in
      match reason with
      | Event.Eager ->
          if d = 0 then
            report st ~seq "walk-discipline"
              "eager (T0) walk %d->%d outside a recover-all episode" client
              server;
          if st.ondemand then
            report st ~seq "walk-discipline"
              "eager (T0) walk %d->%d in on-demand (T1) mode" client server
      | Event.Demand ->
          if d > 0 then
            report st ~seq "walk-discipline"
              "on-demand (T1) walk %d->%d inside a recover-all episode" client
              server
      | Event.Dep | Event.Upcall_driven -> ())
  | Event.Walk_end { client; server; _ } -> (
      match walk_stack st tid with
      | { contents = (c, s) :: rest } as stack ->
          stack := rest;
          if c <> client || s <> server then
            report st ~seq "walk-discipline"
              "walk end %d->%d does not match innermost open walk %d->%d"
              client server c s
      | _ ->
          report st ~seq "walk-discipline" "walk end %d->%d with no walk open"
            client server)
  | Event.Recover_begin { client; server; _ } ->
      incr (depth_of st tid);
      if st.ondemand then
        report st ~seq "walk-discipline"
          "recover-all episode %d->%d in on-demand (T1) mode" client server
  | Event.Recover_end _ ->
      let d = depth_of st tid in
      if !d = 0 then
        report st ~seq "walk-discipline"
          "recover-all episode ended on tid %d but none was open" tid
      else decr d
  | Event.Inject { cid; outcome; _ } -> (
      match outcome with
      | "failstop" -> Inttbl.replace st.expects tid (Expect_crash cid)
      | "hang" -> Inttbl.replace st.expects tid (Expect_crash_or_fault cid)
      | "segfault" | "propagated" -> Inttbl.replace st.expects tid Expect_fault
      | "undetected" -> ()
      | o ->
          report st ~seq "inject-accounting" "unknown injection outcome %S" o)
  | Event.Note { name = "sys-reboot"; _ } ->
      (* chunk boundary in a concatenated multi-run stream (e.g. a
         parallel campaign trace): the simulated system restarts from
         scratch, so every run-scoped obligation resets; only seq /
         virtual-time monotonicity spans the boundary *)
      Inttbl.clear st.failed;
      Inttbl.clear st.spans;
      Inttbl.clear st.span_stacks;
      Inttbl.clear st.pending_divert;
      Inttbl.clear st.walk_stacks;
      Inttbl.clear st.recover_depth;
      Inttbl.clear st.expects
  | Event.Upcall _ | Event.Reflect _ | Event.Storage_op _ | Event.Http _
  | Event.Http_req _ | Event.Perturb _ | Event.Note _ ->
      ()

(* a table's bindings in key order *)
let sorted tbl =
  List.sort
    (fun (a, _) (b, _) -> Int.compare a b)
    (Inttbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* The open obligations, each category in key order: spans by span id,
   the tid-keyed ones by tid; a tid's open walks innermost first. *)
let finish st ~completed =
  if completed then begin
    let seq = st.last_seq in
    List.iter
      (fun (span, info) ->
        report st ~seq "end-of-stream" "span %d (tid %d, server %d) never ended"
          span info.si_tid info.si_server)
      (sorted st.spans);
    List.iter
      (fun (tid, stack) ->
        List.iter
          (fun (c, s) ->
            report st ~seq "end-of-stream" "walk %d->%d (tid %d) never ended" c s
              tid)
          !stack)
      (sorted st.walk_stacks);
    List.iter
      (fun (tid, d) ->
        if !d > 0 then
          report st ~seq "end-of-stream"
            "%d recover-all episode(s) still open on tid %d" !d tid)
      (sorted st.recover_depth);
    List.iter
      (fun (tid, pending) ->
        if Inttbl.length pending > 0 then
          report st ~seq "end-of-stream"
            "tid %d still has %d diverted span(s) that never unwound" tid
            (Inttbl.length pending))
      (sorted st.pending_divert);
    List.iter
      (fun (tid, _) ->
        report st ~seq "end-of-stream"
          "tid %d: activated injection with no subsequent detection record" tid)
      (sorted st.expects)
  end;
  List.rev st.violations

let run ?mode ?(completed = false) events =
  let st = create ?mode () in
  List.iter (feed st) events;
  finish st ~completed
