open Sg_kernel
module Rng = Sg_util.Rng
module Inttbl = Sg_util.Inttbl

type t = {
  sk : Kernel.t;
  sim_rng : Rng.t;
  mutable components : centry array;
      (** indexed by cid; cids are dense from 1, slot 0 is unused *)
  mutable next_cid : int;
  fibers : (Ktcb.tid, fiber) Hashtbl.t;
      (** a generic [Hashtbl] on purpose: [microreboot] emits its
          [Divert] events in this table's iteration order; lookups by
          tid go through [by_tid] *)
  mutable by_tid : fiber array;
      (** the same fibers indexed by tid (dense from 1, slot 0 unused),
          for [wakeup]'s lookup without a polymorphic hash *)
  mutable current : fiber option;
  upcalls : (string * (t -> Comp.value list -> Comp.value Comp.outcome)) list Inttbl.t;
      (** client cid -> its upcall handlers by name *)
  mutable on_dispatch : (t -> Comp.cid -> string -> unit) option;
  mutable sim_fatal : fatal option;
  mutable seq : int;  (** scheduling stamp for round-robin within priority *)
  sim_obs : Sg_obs.Sink.t;
  sim_metrics : Sg_obs.Metrics.t;
  mutable next_span : int;
  ready : fiber Runq.Ready.t;
      (** exactly the runnable, non-finished fibers except the one
          currently executing, keyed (prio, last_run, tid) *)
  sleepq : sleeper Runq.Sleep.t;
      (** sleeping fibers keyed (until_ns, tid); stale entries are
          invalidated by the per-fiber generation counter *)
  mutable live : int;  (** fibers spawned and not yet finished *)
}

and spec = {
  sc_name : string;
  sc_image_kb : int;
  sc_init : t -> Comp.cid -> unit;
  sc_boot_init : t -> Comp.cid -> unit;
  sc_dispatch : t -> Comp.cid -> string -> Comp.value list -> Comp.value Comp.outcome;
  sc_reflect : t -> Comp.cid -> string -> Comp.value list -> Comp.value Comp.outcome;
  sc_usage : string -> Usage.t option;
}

and centry = {
  ce_cid : int;
  ce_spec : spec;
  mutable ce_status : [ `Alive | `Failed of string ];
  mutable ce_epoch : int;
}

and fiber = {
  f_tcb : Ktcb.tcb;
  mutable f_resume : resume;
  mutable f_last_run : int;
  mutable f_sleep_gen : int;
      (** bumped on every transition into or out of [Sleeping]; a
          sleeper-queue entry is live iff its recorded generation still
          matches *)
}

and sleeper = { sl_fiber : fiber; sl_gen : int }

and resume =
  | Start of (t -> unit)
  | Suspended of (unit, unit) Effect.Deep.continuation
  | Finished

and fatal =
  | Fatal_segfault of Comp.cid
  | Fatal_hang of Comp.cid
  | Fatal_propagated of Comp.cid
  | Fatal_uncaught of string

type run_result = Completed | Fatal of fatal | Deadlock

type _ Effect.t +=
  | Block_eff : unit Effect.t
  | Yield_eff : unit Effect.t

let create ?(seed = 42) () =
  let sim_obs = Sg_obs.Sink.create () in
  let sim_metrics = Sg_obs.Metrics.create () in
  Sg_obs.Metrics.attach sim_metrics sim_obs;
  {
    sk = Kernel.create ();
    sim_rng = Rng.create seed;
    components = [||];
    next_cid = 1;
    fibers = Hashtbl.create 16;
    by_tid = [||];
    current = None;
    upcalls = Inttbl.create 4;
    on_dispatch = None;
    sim_fatal = None;
    seq = 0;
    sim_obs;
    sim_metrics;
    next_span = 0;
    ready = Runq.Ready.create ();
    sleepq = Runq.Sleep.create ();
    live = 0;
  }

let obs t = t.sim_obs
let metrics t = t.sim_metrics

let emit t kind =
  let tid =
    match t.current with Some f -> f.f_tcb.Ktcb.tid | None -> -1
  in
  Sg_obs.Sink.emit t.sim_obs ~at_ns:(Kernel.now t.sk) ~tid kind

let kernel t = t.sk
let cost t = t.sk.Kernel.cost
let rng t = t.sim_rng
let now t = Kernel.now t.sk
let charge t ns = Kernel.charge t.sk ns

let centry_exn t cid =
  if cid >= 1 && cid < t.next_cid then t.components.(cid)
  else invalid_arg (Printf.sprintf "Sim: unknown component %d" cid)

let register t spec =
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  let ce = { ce_cid = cid; ce_spec = spec; ce_status = `Alive; ce_epoch = 0 } in
  if cid >= Array.length t.components then begin
    let grown = Array.make (max 16 (2 * cid)) ce in
    Array.blit t.components 0 grown 0 (Array.length t.components);
    t.components <- grown
  end;
  t.components.(cid) <- ce;
  cid

let grant t ~client ~server = Captbl.grant t.sk.Kernel.captbl ~client ~server
let epoch t cid = (centry_exn t cid).ce_epoch
let is_failed t cid =
  match (centry_exn t cid).ce_status with `Failed _ -> true | `Alive -> false

let mark_failed t cid ~detector =
  let ce = centry_exn t cid in
  match ce.ce_status with
  | `Failed _ -> ()
  | `Alive ->
      ce.ce_status <- `Failed detector;
      emit t (Sg_obs.Event.Crash { cid; detector })

let reboots t = Sg_obs.Metrics.reboots t.sim_metrics
let invocations t = Sg_obs.Metrics.invocations t.sim_metrics
let set_on_dispatch t hook = t.on_dispatch <- hook
let usage_of t cid fn = (centry_exn t cid).ce_spec.sc_usage fn
let fatal t = t.sim_fatal

let set_fatal t f = if t.sim_fatal = None then t.sim_fatal <- Some f

let fatal_to_string = function
  | Fatal_segfault cid -> Printf.sprintf "segfault (component %d)" cid
  | Fatal_hang cid -> Printf.sprintf "hang (component %d)" cid
  | Fatal_propagated cid -> Printf.sprintf "fault propagated (component %d)" cid
  | Fatal_uncaught msg -> "uncaught exception: " ^ msg

let pp_run_result ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Fatal f -> Format.fprintf ppf "fatal: %s" (fatal_to_string f)
  | Deadlock -> Format.pp_print_string ppf "deadlock"

(* {1 Threads} *)

let current_fiber t =
  match t.current with
  | Some f -> f
  | None -> invalid_arg "Sim: no current thread (not inside Sim.run)"

let current_tcb t = (current_fiber t).f_tcb
let current_tid t = (current_tcb t).Ktcb.tid

let self_cid t =
  match Ktcb.current_component (current_tcb t) with
  | Some cid -> cid
  | None -> invalid_arg "Sim.self_cid: empty invocation stack"

let client_cid t =
  match (current_tcb t).Ktcb.stack with
  | _ :: client :: _ -> client
  | [ home ] -> home
  | [] -> invalid_arg "Sim.client_cid: empty invocation stack"

(* {2 Ready / sleeper queue maintenance}

   Every thread-state transition funnels through the functions below, so
   the queues are maintained incrementally and exactly: the ready heap
   holds precisely the runnable, unfinished fibers other than the one
   executing; the sleeper heap holds one live entry per sleeping fiber
   (plus lazily-discarded stale ones). Threads dispatch in (prio,
   last_run, tid) order; the golden-trace tests pin the resulting
   dispatch sequence and event streams. *)

let ready_push t fiber =
  Runq.Ready.push t.ready
    (fiber.f_tcb.Ktcb.prio, fiber.f_last_run, fiber.f_tcb.Ktcb.tid)
    fiber

let sleeper_live entry =
  entry.sl_gen = entry.sl_fiber.f_sleep_gen
  && (match entry.sl_fiber.f_tcb.Ktcb.state with
     | Ktcb.Sleeping _ -> true
     | Ktcb.Runnable | Ktcb.Blocked _ | Ktcb.Exited -> false)

let spawn t ?(prio = 10) ~name ~home f =
  let tcb = Ktcb.spawn t.sk.Kernel.threads ~name ~prio ~home in
  let fiber = { f_tcb = tcb; f_resume = Start f; f_last_run = 0; f_sleep_gen = 0 } in
  let tid = tcb.Ktcb.tid in
  Hashtbl.replace t.fibers tid fiber;
  if tid >= Array.length t.by_tid then begin
    let grown = Array.make (max 16 (2 * tid)) fiber in
    Array.blit t.by_tid 0 grown 0 (Array.length t.by_tid);
    t.by_tid <- grown
  end;
  t.by_tid.(tid) <- fiber;
  t.live <- t.live + 1;
  ready_push t fiber;
  tid

let block t =
  let tcb = current_tcb t in
  let in_component = self_cid t in
  charge t (cost t).Cost.block_ns;
  tcb.Ktcb.state <- Ktcb.Blocked { in_component };
  Effect.perform Block_eff

let sleep_until t until_ns =
  let fiber = current_fiber t in
  let tcb = fiber.f_tcb in
  let in_component = self_cid t in
  charge t (cost t).Cost.block_ns;
  tcb.Ktcb.state <- Ktcb.Sleeping { until_ns; in_component };
  fiber.f_sleep_gen <- fiber.f_sleep_gen + 1;
  Runq.Sleep.push t.sleepq (until_ns, tcb.Ktcb.tid)
    { sl_fiber = fiber; sl_gen = fiber.f_sleep_gen };
  Effect.perform Block_eff

let wakeup t tid =
  match Ktcb.find t.sk.Kernel.threads tid with
  | None -> false
  | Some tcb -> (
      match tcb.Ktcb.state with
      | Ktcb.Blocked _ | Ktcb.Sleeping _ ->
          let was_sleeping =
            match tcb.Ktcb.state with Ktcb.Sleeping _ -> true | _ -> false
          in
          charge t (cost t).Cost.wakeup_ns;
          tcb.Ktcb.state <- Ktcb.Runnable;
          (* every kernel thread of a simulation is one of its fibers *)
          let fiber = t.by_tid.(tid) in
          if was_sleeping then fiber.f_sleep_gen <- fiber.f_sleep_gen + 1;
          ready_push t fiber;
          true
      | Ktcb.Runnable | Ktcb.Exited -> false)

let yield (_ : t) =
  (* remains runnable; the dispatcher will pick the best candidate *)
  Effect.perform Yield_eff

(* {1 Components: invocation, reflection, upcalls, reboot} *)

(* One invocation in one handler frame: no body closure and no
   [Fun.protect]. A server fault (a [Crash] of the server itself) marks
   it failed while the server is still on the invocation stack, then
   the stack is restored and the span ends faulted — the order the
   dispatch hook, the checker and every stream rely on. *)
let invoke t ~server fn args =
  let tcb = current_tcb t in
  let client =
    match tcb.Ktcb.stack with
    | cid :: _ -> cid
    | [] -> invalid_arg "Sim.self_cid: empty invocation stack"
  in
  if not (Captbl.allowed t.sk.Kernel.captbl ~client ~server) then Error Comp.EPERM
  else begin
    t.next_span <- t.next_span + 1;
    let span = t.next_span in
    emit t (Sg_obs.Event.Span_begin { span; client; server; fn });
    charge t (cost t).Cost.invocation_ns;
    match centry_exn t server with
    | exception e ->
        emit t (Sg_obs.Event.Span_end { span; server; ok = false });
        raise e
    | { ce_status = `Failed d; _ } ->
        emit t (Sg_obs.Event.Span_end { span; server; ok = false });
        raise (Comp.Crash { cid = server; detector = "vectored:" ^ d })
    | ce -> (
        Ktcb.enter_component tcb server;
        match
          (match t.on_dispatch with Some hook -> hook t server fn | None -> ());
          (match ce.ce_spec.sc_usage fn with
          | Some u -> charge t (Usage.duration_ns u)
          | None -> charge t (cost t).Cost.dispatch_ns);
          ce.ce_spec.sc_dispatch t server fn args
        with
        | r ->
            Ktcb.leave_component tcb;
            emit t (Sg_obs.Event.Span_end { span; server; ok = true });
            r
        | exception e ->
            (match e with
            | Comp.Crash { cid; detector } when cid = server ->
                mark_failed t server ~detector
            | _ -> ());
            Ktcb.leave_component tcb;
            emit t (Sg_obs.Event.Span_end { span; server; ok = false });
            raise e)
  end

let reflect t ~server fn args =
  let tcb = current_tcb t in
  emit t (Sg_obs.Event.Reflect { cid = server; fn });
  charge t (cost t).Cost.reflect_ns;
  let ce = centry_exn t server in
  (match ce.ce_status with
  | `Failed d -> raise (Comp.Crash { cid = server; detector = "vectored:" ^ d })
  | `Alive -> ());
  Ktcb.enter_component tcb server;
  Fun.protect
    ~finally:(fun () -> Ktcb.leave_component tcb)
    (fun () -> ce.ce_spec.sc_reflect t server fn args)

let register_upcall t ~client fn handler =
  let others =
    List.filter
      (fun (name, _) -> not (String.equal name fn))
      (Inttbl.find_or t.upcalls client [])
  in
  Inttbl.replace t.upcalls client ((fn, handler) :: others)

let rec handler_of fn = function
  | [] -> None
  | (name, h) :: rest -> if String.equal name fn then Some h else handler_of fn rest

let upcall t ~client fn args =
  match handler_of fn (Inttbl.find_or t.upcalls client []) with
  | None -> Error Comp.ENOENT
  | Some handler ->
      let tcb = current_tcb t in
      emit t (Sg_obs.Event.Upcall { cid = client; fn });
      charge t (cost t).Cost.upcall_ns;
      Ktcb.enter_component tcb client;
      Fun.protect
        ~finally:(fun () -> Ktcb.leave_component tcb)
        (fun () -> handler t args)

(* Of two pending diverts on [stack] (innermost first), the one outermost
   on it: unwinding to that component's client stub also leaves the
   other, so a second reboot never shortens a divert already set. *)
let rec outermost stack prev cid =
  match stack with
  | [] -> cid
  | c :: rest ->
      if c = prev then cid else if c = cid then prev else outermost rest prev cid

let microreboot t cid =
  let ce = centry_exn t cid in
  let cost_ns = ce.ce_spec.sc_image_kb * (cost t).Cost.reboot_ns_per_kb in
  emit t
    (Sg_obs.Event.Reboot
       {
         cid;
         epoch = ce.ce_epoch + 1;
         image_kb = ce.ce_spec.sc_image_kb;
         cost_ns;
       });
  charge t cost_ns;
  ce.ce_status <- `Alive;
  ce.ce_epoch <- ce.ce_epoch + 1;
  ce.ce_spec.sc_init t cid;
  (* every thread suspended with this component on its invocation stack
     must divert back to its client stub when next resumed — including
     threads already woken but not yet scheduled, whose continuations
     still point into the dead incarnation's code *)
  Hashtbl.iter
    (fun _ fiber ->
      let tcb = fiber.f_tcb in
      match (fiber.f_resume, tcb.Ktcb.state) with
      | Suspended _, (Ktcb.Blocked _ | Ktcb.Sleeping _ | Ktcb.Runnable)
        when Ktcb.in_stack tcb cid ->
          tcb.Ktcb.divert <-
            Some
              (match tcb.Ktcb.divert with
              | None -> cid
              | Some prev -> outermost tcb.Ktcb.stack prev cid);
          emit t (Sg_obs.Event.Divert { cid; victim = tcb.Ktcb.tid })
      | _ -> ())
    t.fibers;
  (* run the post-reboot constructor as the rebooted component, so that
     eager recovery (T0) invocations originate from it *)
  match t.current with
  | Some fiber ->
      Ktcb.enter_component fiber.f_tcb cid;
      Fun.protect
        ~finally:(fun () -> Ktcb.leave_component fiber.f_tcb)
        (fun () -> ce.ce_spec.sc_boot_init t cid)
  | None -> ce.ce_spec.sc_boot_init t cid

(* {1 The discrete-event dispatcher} *)

let handler t fiber =
  let open Effect.Deep in
  {
    retc =
      (fun () ->
        fiber.f_resume <- Finished;
        fiber.f_tcb.Ktcb.state <- Ktcb.Exited;
        t.live <- t.live - 1);
    exnc =
      (fun e ->
        fiber.f_resume <- Finished;
        fiber.f_tcb.Ktcb.state <- Ktcb.Exited;
        t.live <- t.live - 1;
        match e with
        | Comp.Sys_segfault { cid } -> set_fatal t (Fatal_segfault cid)
        | Comp.Sys_hang { cid } -> set_fatal t (Fatal_hang cid)
        | Comp.Sys_propagated { cid } -> set_fatal t (Fatal_propagated cid)
        | e ->
            set_fatal t
              (Fatal_uncaught
                 (Printf.sprintf "thread %s: %s" fiber.f_tcb.Ktcb.name
                    (Printexc.to_string e))));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Block_eff ->
            Some
              (fun (k : (a, unit) continuation) ->
                fiber.f_resume <- Suspended k)
        | Yield_eff ->
            Some
              (fun (k : (a, unit) continuation) ->
                fiber.f_resume <- Suspended k)
        | _ -> None);
  }

let run_fiber t fiber =
  t.current <- Some fiber;
  t.seq <- t.seq + 1;
  fiber.f_last_run <- t.seq;
  (match fiber.f_resume with
  | Finished -> ()
  | Start f ->
      fiber.f_resume <- Finished;
      Effect.Deep.match_with (fun () -> f t) () (handler t fiber)
  | Suspended k -> (
      fiber.f_resume <- Finished;
      match fiber.f_tcb.Ktcb.divert with
      | Some cid ->
          fiber.f_tcb.Ktcb.divert <- None;
          Effect.Deep.discontinue k (Comp.Diverted { cid })
      | None -> Effect.Deep.continue k ()));
  t.current <- None

(* [run] dequeues a fiber for dispatch; [requeue] puts it back iff it is
   still runnable after its slice (it yielded rather than blocked or
   exited) *)
let requeue t fiber =
  match (fiber.f_resume, fiber.f_tcb.Ktcb.state) with
  | (Start _ | Suspended _), Ktcb.Runnable -> ready_push t fiber
  | _ -> ()

let rec earliest_wakeup t =
  match Runq.Sleep.peek t.sleepq with
  | None -> None
  | Some ((until_ns, _), entry) ->
      if sleeper_live entry then Some until_ns
      else begin
        ignore (Runq.Sleep.pop t.sleepq);
        earliest_wakeup t
      end

let rec wake_expired_sleepers t =
  match Runq.Sleep.peek t.sleepq with
  | None -> ()
  | Some ((until_ns, _), entry) ->
      if not (sleeper_live entry) then begin
        ignore (Runq.Sleep.pop t.sleepq);
        wake_expired_sleepers t
      end
      else if until_ns <= now t then begin
        ignore (Runq.Sleep.pop t.sleepq);
        entry.sl_fiber.f_sleep_gen <- entry.sl_fiber.f_sleep_gen + 1;
        entry.sl_fiber.f_tcb.Ktcb.state <- Ktcb.Runnable;
        ready_push t entry.sl_fiber;
        wake_expired_sleepers t
      end

let rec run t =
  match t.sim_fatal with
  | Some f -> Fatal f
  | None -> (
      (* busy threads advance the clock through charges, so timed sleeps
         can expire while others run *)
      wake_expired_sleepers t;
      match Runq.Ready.pop t.ready with
      | Some (_, fiber) ->
          run_fiber t fiber;
          requeue t fiber;
          run t
      | None -> (
          match earliest_wakeup t with
          | Some until_ns ->
              Clock.advance_to t.sk.Kernel.clock until_ns;
              wake_expired_sleepers t;
              run t
          | None -> if t.live = 0 then Completed else Deadlock))
