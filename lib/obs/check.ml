(* Trace-invariant checker: validates a full event stream (retention
   [All]) against the recovery-ordering rules of the paper. The checker
   is a single forward fold, fed live from a sink or over a held list.
   Per-component state is the failed set; everything per thread lives in
   one record per thread, found through a one-entry cache. *)

module Inttbl = Sg_util.Inttbl

type violation = { at_seq : int; rule : string; msg : string }

let pp_violation ppf v =
  Format.fprintf ppf "#%d [%s] %s" v.at_seq v.rule v.msg

type expectation =
  | No_expect
  | Expect_crash of int  (* failstop: next event on tid is Crash cid *)
  | Expect_crash_or_fault of int  (* hang: Crash cid or a faulted span end *)
  | Expect_fault  (* segfault/propagated: next event on tid ends a span faulted *)

type thread = {
  th_tid : int;
  mutable spans : int array;
      (* the open span stack, innermost last: three ints per span (id,
         server, 1 if the server was failed at begin) *)
  mutable n_spans : int;
  mutable walks : (int * int) list;  (* open (client, server) walks, LIFO *)
  mutable depth : int;  (* open recover-all episodes *)
  mutable pending : int list;
      (* span ids (a set) that must unwind faulted before the thread
         begins a new span *)
  mutable expect : expectation;  (* pending injection fate *)
}

(* an open span as a lookup by id sees it: its latest begin *)
type span_info = { si_server : int; si_tid : int; si_begun_failed : bool }

type t = {
  ondemand : bool;  (* [~mode:`Ondemand]: no eager walk, no recover-all *)
  mutable last_seq : int;
  mutable last_at : int;
  failed : string Inttbl.t;  (* cid -> detector while failed *)
  threads : thread Inttbl.t;
  mutable last : thread;  (* the thread of the previous lookup *)
  mutable max_span : int;  (* the highest span id begun *)
  mutable index : span_info Inttbl.t option;
      (* open span id -> info, built at the first span event off the
         common path (see [index]) and kept from then on *)
  mutable n_expects : int;  (* threads with a pending expectation *)
  mutable violations : violation list;  (* newest first *)
}

(* never bound in a table and never mutated: the cache's empty state and
   [Inttbl.find_or]'s miss *)
let no_thread =
  {
    th_tid = 0;
    spans = [||];
    n_spans = 0;
    walks = [];
    depth = 0;
    pending = [];
    expect = No_expect;
  }

let no_span = { si_server = -1; si_tid = -1; si_begun_failed = false }

let create ?mode () =
  {
    ondemand = mode = Some `Ondemand;
    last_seq = -1;
    last_at = 0;
    failed = Inttbl.create 8;
    threads = Inttbl.create 8;
    last = no_thread;
    max_span = min_int;
    index = None;
    n_expects = 0;
    violations = [];
  }

let report st ~seq rule fmt =
  Printf.ksprintf
    (fun msg -> st.violations <- { at_seq = seq; rule; msg } :: st.violations)
    fmt

(* the thread's record, created on first use *)
let thread st tid =
  let th = st.last in
  if th.th_tid = tid && th != no_thread then th
  else begin
    let th = Inttbl.find_or st.threads tid no_thread in
    let th =
      if th != no_thread then th
      else begin
        let th = { no_thread with th_tid = tid } in
        Inttbl.replace st.threads tid th;
        th
      end
    in
    st.last <- th;
    th
  end

let is_failed st cid = Inttbl.length st.failed > 0 && Inttbl.mem st.failed cid

let push_span th span server begun_failed =
  let n = 3 * th.n_spans in
  if n = Array.length th.spans then begin
    let grown = Array.make (max 12 (2 * n)) 0 in
    Array.blit th.spans 0 grown 0 n;
    th.spans <- grown
  end;
  th.spans.(n) <- span;
  th.spans.(n + 1) <- server;
  th.spans.(n + 2) <- (if begun_failed then 1 else 0);
  th.n_spans <- th.n_spans + 1

(* Open spans by id. While every begin brings a fresh id (above
   [max_span]) and every end closes its thread's innermost span, each
   stack entry is its id's only open span, so the stacks alone answer
   every question and no table is kept. The first span event off that
   path (a reused id, an end that is not the innermost, an end of no
   span) builds the table from the stacks, and from then on every begin
   and end keeps it: a stack entry may then name an id that has ended
   or was begun again elsewhere. *)
let index st =
  match st.index with
  | Some idx -> idx
  | None ->
      let idx = Inttbl.create 64 in
      Inttbl.fold
        (fun tid th () ->
          for i = 0 to th.n_spans - 1 do
            Inttbl.replace idx
              th.spans.(3 * i)
              {
                si_server = th.spans.((3 * i) + 1);
                si_tid = tid;
                si_begun_failed = th.spans.((3 * i) + 2) = 1;
              }
          done)
        st.threads ();
      st.index <- Some idx;
      idx

let add_pending th span =
  if not (List.mem span th.pending) then th.pending <- span :: th.pending

(* the injector's fate expectation for this thread, resolved by the
   current event: a detected crash of the target, or the span unwinding
   faulted, depending on outcome class *)
let resolve_expectation st ~seq ~tid (kind : Event.kind) =
  let th = Inttbl.find_or st.threads tid no_thread in
  match th.expect with
  | No_expect -> ()
  | exp ->
      th.expect <- No_expect;
      st.n_expects <- st.n_expects - 1;
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
          tid (Event.kind_name kind)

let expect st tid exp =
  let th = thread st tid in
  (match th.expect with
  | No_expect -> st.n_expects <- st.n_expects + 1
  | Expect_crash _ | Expect_crash_or_fault _ | Expect_fault -> ());
  th.expect <- exp

let span_end_indexed st th ~seq ~tid ~span ~server ~ok =
  let idx = index st in
  match Inttbl.find_or idx span no_span with
  | info when info == no_span ->
      report st ~seq "span-nesting" "span %d ended but never begun" span
  | info ->
      Inttbl.remove idx span;
      if info.si_tid <> tid then
        report st ~seq "span-nesting" "span %d begun on tid %d but ended on tid %d"
          span info.si_tid tid;
      (* a span that started against (or into) a failed incarnation
         must not complete successfully: recovery requires the
         micro-reboot first *)
      if ok && info.si_begun_failed then
        report st ~seq "no-success-while-failed"
          "span %d into component %d begun while failed but ended ok" span
          server;
      let n = th.n_spans in
      if n = 0 then
        report st ~seq "span-nesting" "tid %d ended span %d with no span open"
          tid span
      else if th.spans.(3 * (n - 1)) = span then th.n_spans <- n - 1
      else
        report st ~seq "span-nesting"
          "tid %d ended span %d but its innermost open span is %d" tid span
          th.spans.(3 * (n - 1))

let feed st (e : Event.t) =
  let seq = e.Event.seq and tid = e.Event.tid in
  (* monotone sequence numbers and virtual timestamps *)
  if seq <= st.last_seq then
    report st ~seq "monotone-time" "seq %d after seq %d" seq st.last_seq;
  if e.Event.at_ns < st.last_at then
    report st ~seq "monotone-time" "virtual time went backwards: %d ns after %d ns"
      e.Event.at_ns st.last_at;
  st.last_seq <- seq;
  if e.Event.at_ns > st.last_at then st.last_at <- e.Event.at_ns;
  if st.n_expects > 0 then resolve_expectation st ~seq ~tid e.Event.kind;
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
      let th = thread st tid in
      if not (List.is_empty th.pending) then
        report st ~seq "divert-unwind"
          "tid %d began span %d with %d diverted span(s) still open" tid span
          (List.length th.pending);
      let begun_failed = is_failed st server in
      (match st.index with
      | None when span > st.max_span -> ()
      | _ ->
          let idx = index st in
          if Inttbl.mem idx span then
            report st ~seq "span-nesting" "span id %d begun twice" span;
          Inttbl.replace idx span
            { si_server = server; si_tid = tid; si_begun_failed = begun_failed });
      if span > st.max_span then st.max_span <- span;
      push_span th span server begun_failed
  | Event.Span_end { span; server; ok } ->
      let th = thread st tid in
      let n = th.n_spans in
      (match st.index with
      | None when n > 0 && th.spans.(3 * (n - 1)) = span ->
          (* the innermost span of this thread, and the only open span
             of its id *)
          if ok && th.spans.((3 * (n - 1)) + 2) = 1 then
            report st ~seq "no-success-while-failed"
              "span %d into component %d begun while failed but ended ok"
              span server;
          th.n_spans <- n - 1
      | _ -> span_end_indexed st th ~seq ~tid ~span ~server ~ok);
      if ok && is_failed st server then
        report st ~seq "no-success-while-failed"
          "successful invocation of component %d while it is failed \
           (crash not yet followed by its micro-reboot)"
          server;
      if List.mem span th.pending then begin
        th.pending <- List.filter (fun s -> s <> span) th.pending;
        if ok then
          report st ~seq "divert-unwind"
            "diverted span %d (tid %d) completed ok instead of unwinding" span
            tid
      end
  | Event.Divert { cid; victim } ->
      (* the victim's open spans into the rebooted component must unwind
         (end faulted) before the victim re-enters any server *)
      let th = thread st victim in
      for i = th.n_spans - 1 downto 0 do
        let span = th.spans.(3 * i) in
        match st.index with
        | None -> if th.spans.((3 * i) + 1) = cid then add_pending th span
        | Some idx -> (
            match Inttbl.find_or idx span no_span with
            | info when info == no_span -> ()
            | info -> if info.si_server = cid then add_pending th span)
      done
  | Event.Walk_begin { client; server; reason; _ } -> (
      let th = thread st tid in
      th.walks <- (client, server) :: th.walks;
      match reason with
      | Event.Eager ->
          if th.depth = 0 then
            report st ~seq "walk-discipline"
              "eager (T0) walk %d->%d outside a recover-all episode" client
              server;
          if st.ondemand then
            report st ~seq "walk-discipline"
              "eager (T0) walk %d->%d in on-demand (T1) mode" client server
      | Event.Demand ->
          if th.depth > 0 then
            report st ~seq "walk-discipline"
              "on-demand (T1) walk %d->%d inside a recover-all episode" client
              server
      | Event.Dep | Event.Upcall_driven -> ())
  | Event.Walk_end { client; server; _ } -> (
      let th = thread st tid in
      match th.walks with
      | (c, s) :: rest ->
          th.walks <- rest;
          if c <> client || s <> server then
            report st ~seq "walk-discipline"
              "walk end %d->%d does not match innermost open walk %d->%d"
              client server c s
      | [] ->
          report st ~seq "walk-discipline" "walk end %d->%d with no walk open"
            client server)
  | Event.Recover_begin { client; server; _ } ->
      let th = thread st tid in
      th.depth <- th.depth + 1;
      if st.ondemand then
        report st ~seq "walk-discipline"
          "recover-all episode %d->%d in on-demand (T1) mode" client server
  | Event.Recover_end _ ->
      let th = thread st tid in
      if th.depth = 0 then
        report st ~seq "walk-discipline"
          "recover-all episode ended on tid %d but none was open" tid
      else th.depth <- th.depth - 1
  | Event.Inject { cid; outcome; _ } -> (
      match outcome with
      | "failstop" -> expect st tid (Expect_crash cid)
      | "hang" -> expect st tid (Expect_crash_or_fault cid)
      | "segfault" | "propagated" -> expect st tid Expect_fault
      | "undetected" -> ()
      | o ->
          report st ~seq "inject-accounting" "unknown injection outcome %S" o)
  | Event.Note { name = "sys-reboot"; _ } ->
      (* chunk boundary in a concatenated multi-run stream (e.g. a
         parallel campaign trace): the simulated system restarts from
         scratch, so every run-scoped obligation resets; only seq /
         virtual-time monotonicity spans the boundary *)
      Inttbl.clear st.failed;
      Inttbl.clear st.threads;
      st.last <- no_thread;
      st.max_span <- min_int;
      st.index <- None;
      st.n_expects <- 0
  | Event.Upcall _ | Event.Reflect _ | Event.Storage_op _ | Event.Http _
  | Event.Http_req _ | Event.Perturb _ | Event.Note _ ->
      ()

(* the open spans as (id, tid, server), by id *)
let open_spans st =
  let spans =
    match st.index with
    | Some idx ->
        Inttbl.fold
          (fun span info acc -> (span, info.si_tid, info.si_server) :: acc)
          idx []
    | None ->
        Inttbl.fold
          (fun tid th acc ->
            let acc = ref acc in
            for i = 0 to th.n_spans - 1 do
              acc := (th.spans.(3 * i), tid, th.spans.((3 * i) + 1)) :: !acc
            done;
            !acc)
          st.threads []
  in
  List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) spans

(* The open obligations, each category in key order: spans by span id,
   the per-thread ones by tid; a tid's open walks innermost first. *)
let finish st ~completed =
  if completed then begin
    let seq = st.last_seq in
    List.iter
      (fun (span, tid, server) ->
        report st ~seq "end-of-stream" "span %d (tid %d, server %d) never ended"
          span tid server)
      (open_spans st);
    let threads =
      List.sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (Inttbl.fold
           (fun tid th acc ->
             if
               List.is_empty th.walks && th.depth = 0
               && List.is_empty th.pending && th.expect = No_expect
             then acc
             else (tid, th) :: acc)
           st.threads [])
    in
    List.iter
      (fun (tid, th) ->
        List.iter
          (fun (c, s) ->
            report st ~seq "end-of-stream" "walk %d->%d (tid %d) never ended" c s
              tid)
          th.walks)
      threads;
    List.iter
      (fun (tid, th) ->
        if th.depth > 0 then
          report st ~seq "end-of-stream"
            "%d recover-all episode(s) still open on tid %d" th.depth tid)
      threads;
    List.iter
      (fun (tid, th) ->
        if not (List.is_empty th.pending) then
          report st ~seq "end-of-stream"
            "tid %d still has %d diverted span(s) that never unwound" tid
            (List.length th.pending))
      threads;
    List.iter
      (fun (tid, th) ->
        if th.expect <> No_expect then
          report st ~seq "end-of-stream"
            "tid %d: activated injection with no subsequent detection record" tid)
      threads
  end;
  List.rev st.violations

let run ?mode ?(completed = false) events =
  let st = create ?mode () in
  List.iter (feed st) events;
  finish st ~completed
