(* Integration tests for the Sg_os simulation core: fibers, blocking,
   invocation, crash propagation, micro-reboot and diversion. *)

open Sg_os
module Usage = Sg_kernel.Usage

let trivial_spec ?(name = "app") ?(dispatch = fun _ _ _ _ -> Ok Comp.VUnit) () =
  {
    Sim.sc_name = name;
    sc_image_kb = 16;
    sc_init = (fun _ _ -> ());
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch = dispatch;
    sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
    sc_usage = (fun _ -> None);
  }

let test_spawn_run () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let hits = ref 0 in
  let _ = Sim.spawn sim ~name:"t1" ~home:app (fun _ -> incr hits) in
  let _ = Sim.spawn sim ~name:"t2" ~home:app (fun _ -> incr hits) in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check int) "both ran" 2 !hits

let test_priority_order () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let order = ref [] in
  let _ = Sim.spawn sim ~prio:10 ~name:"low" ~home:app (fun _ -> order := "low" :: !order) in
  let _ = Sim.spawn sim ~prio:1 ~name:"high" ~home:app (fun _ -> order := "high" :: !order) in
  ignore (Sim.run sim);
  Alcotest.(check (list string)) "high first" [ "low"; "high" ] !order

let test_block_wakeup_pingpong () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let trace = Buffer.create 16 in
  let tid_a = ref (-1) in
  let a_started = ref false in
  let _ =
    Sim.spawn sim ~name:"a" ~home:app (fun sim ->
        tid_a := Sim.current_tid sim;
        a_started := true;
        for _ = 1 to 3 do
          Buffer.add_char trace 'a';
          Sim.block sim
        done)
  in
  let _ =
    Sim.spawn sim ~name:"b" ~home:app (fun sim ->
        for _ = 1 to 3 do
          Buffer.add_char trace 'b';
          ignore (Sim.wakeup sim !tid_a);
          Sim.yield sim
        done)
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check string) "interleaving" "abababa" (Buffer.contents trace ^ "a")

let test_sleep_advances_clock () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let woke_at = ref 0 in
  let _ =
    Sim.spawn sim ~name:"sleeper" ~home:app (fun sim ->
        Sim.sleep_until sim 5_000;
        woke_at := Sim.now sim)
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check bool) "clock advanced to deadline" true (!woke_at >= 5_000)

let test_deadlock_detected () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let _ = Sim.spawn sim ~name:"stuck" ~home:app (fun sim -> Sim.block sim) in
  Alcotest.(check bool) "deadlock" true (Sim.run sim = Sim.Deadlock)

(* A counter server: get/inc; crashes on demand via a poison flag. *)
let counter_spec poison =
  let state = ref 0 in
  {
    Sim.sc_name = "counter";
    sc_image_kb = 16;
    sc_init = (fun _ _ -> state := 0);
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch =
      (fun _ cid fn args ->
        if !poison then raise (Comp.Crash { cid; detector = "assert" });
        match (fn, args) with
        | "inc", [] ->
            incr state;
            Ok (Comp.VInt !state)
        | "get", [] -> Ok (Comp.VInt !state)
        | _ -> Error Comp.EINVAL);
    sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
    sc_usage = (fun _ -> None);
  }

let test_invoke_basic () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let poison = ref false in
  let counter = Sim.register sim (counter_spec poison) in
  Sim.grant sim ~client:app ~server:counter;
  let result = ref 0 in
  let _ =
    Sim.spawn sim ~name:"w" ~home:app (fun sim ->
        (match Sim.invoke sim ~server:counter "inc" [] with
        | Ok (Comp.VInt v) -> result := v
        | _ -> ());
        match Sim.invoke sim ~server:counter "get" [] with
        | Ok (Comp.VInt v) -> result := !result + v
        | _ -> ())
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check int) "invocations counted" 2 (Sim.invocations sim);
  Alcotest.(check int) "1 + 1" 2 !result;
  Alcotest.(check bool) "time charged" true (Sim.now sim > 0)

let test_invoke_without_capability () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let poison = ref false in
  let counter = Sim.register sim (counter_spec poison) in
  let got = ref None in
  let _ =
    Sim.spawn sim ~name:"w" ~home:app (fun sim ->
        got := Some (Sim.invoke sim ~server:counter "inc" []))
  in
  ignore (Sim.run sim);
  Alcotest.(check bool) "EPERM" true (!got = Some (Error Comp.EPERM))

let test_crash_marks_failed_and_vectored () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let poison = ref false in
  let counter = Sim.register sim (counter_spec poison) in
  Sim.grant sim ~client:app ~server:counter;
  let crashes = ref 0 in
  let _ =
    Sim.spawn sim ~name:"w" ~home:app (fun sim ->
        ignore (Sim.invoke sim ~server:counter "inc" []);
        poison := true;
        (try ignore (Sim.invoke sim ~server:counter "inc" [])
         with Comp.Crash _ -> incr crashes);
        (* further invocations are vectored: the component is failed *)
        (try ignore (Sim.invoke sim ~server:counter "inc" [])
         with Comp.Crash _ -> incr crashes);
        Alcotest.(check bool) "marked failed" true (Sim.is_failed sim counter))
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check int) "both crash" 2 !crashes

let test_microreboot_recovers () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let poison = ref false in
  let counter = Sim.register sim (counter_spec poison) in
  Sim.grant sim ~client:app ~server:counter;
  let final = ref (-1) in
  let _ =
    Sim.spawn sim ~name:"w" ~home:app (fun sim ->
        ignore (Sim.invoke sim ~server:counter "inc" []);
        poison := true;
        (try ignore (Sim.invoke sim ~server:counter "inc" [])
         with Comp.Crash _ ->
           poison := false;
           Sim.microreboot sim counter);
        Alcotest.(check bool) "alive again" true (not (Sim.is_failed sim counter));
        Alcotest.(check int) "epoch bumped" 1 (Sim.epoch sim counter);
        match Sim.invoke sim ~server:counter "get" [] with
        | Ok (Comp.VInt v) -> final := v
        | _ -> ())
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check int) "state reset by reboot" 0 !final;
  Alcotest.(check int) "reboot counted" 1 (Sim.reboots sim)

(* A blocking server: "wait" blocks the calling thread inside the server,
   "post" wakes the waiter. *)
let gate_spec () =
  let waiter = ref None in
  {
    Sim.sc_name = "gate";
    sc_image_kb = 16;
    sc_init = (fun _ _ -> waiter := None);
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch =
      (fun sim _cid fn args ->
        match (fn, args) with
        | "wait", [] ->
            waiter := Some (Sim.current_tid sim);
            Sim.block sim;
            Ok Comp.VUnit
        | "post", [] -> (
            match !waiter with
            | Some tid ->
                ignore (Sim.wakeup sim tid);
                waiter := None;
                Ok Comp.VUnit
            | None -> Error Comp.EAGAIN)
        | _ -> Error Comp.EINVAL);
    sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
    sc_usage = (fun _ -> None);
  }

let test_block_inside_server () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let gate = Sim.register sim (gate_spec ()) in
  Sim.grant sim ~client:app ~server:gate;
  let woke = ref false in
  let _ =
    Sim.spawn sim ~name:"waiter" ~home:app (fun sim ->
        ignore (Sim.invoke sim ~server:gate "wait" []);
        woke := true)
  in
  let _ =
    Sim.spawn sim ~name:"poster" ~home:app (fun sim ->
        Sim.yield sim;
        ignore (Sim.invoke sim ~server:gate "post" []))
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check bool) "waiter woke" true !woke

let test_divert_on_reboot () =
  (* A thread blocked inside a server that gets micro-rebooted must be
     diverted: its invocation raises Comp.Diverted back in the client. *)
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let gate = Sim.register sim (gate_spec ()) in
  Sim.grant sim ~client:app ~server:gate;
  let diverted = ref false in
  let waiter_tid = ref (-1) in
  let _ =
    Sim.spawn sim ~name:"waiter" ~home:app (fun sim ->
        waiter_tid := Sim.current_tid sim;
        try ignore (Sim.invoke sim ~server:gate "wait" [])
        with Comp.Diverted { cid } ->
          Alcotest.(check int) "diverted from gate" gate cid;
          diverted := true)
  in
  let _ =
    Sim.spawn sim ~name:"booter" ~home:app (fun sim ->
        Sim.yield sim;
        (* crash + reboot the gate while the waiter is blocked inside *)
        Sim.mark_failed sim gate ~detector:"test";
        Sim.microreboot sim gate;
        (* T0: wake the previously blocked thread; it diverts on resume *)
        ignore (Sim.wakeup sim !waiter_tid))
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check bool) "waiter diverted" true !diverted

(* Two components on a blocked thread's stack reboot, the outer one
   first: the thread is diverted to the outer one's client stub, as
   unwinding there leaves the inner one too. Diverting it to the inner
   one would leave it running in the outer one's dead incarnation. *)
let test_divert_outermost () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let gate = Sim.register sim (gate_spec ()) in
  let relay =
    Sim.register sim
      (trivial_spec ~name:"relay"
         ~dispatch:(fun sim _ fn args -> Sim.invoke sim ~server:gate fn args)
         ())
  in
  Sim.grant sim ~client:app ~server:relay;
  Sim.grant sim ~client:relay ~server:gate;
  let diverted = ref None in
  let waiter_tid = ref (-1) in
  let _ =
    Sim.spawn sim ~name:"waiter" ~home:app (fun sim ->
        waiter_tid := Sim.current_tid sim;
        try ignore (Sim.invoke sim ~server:relay "wait" [])
        with Comp.Diverted { cid } -> diverted := Some cid)
  in
  let _ =
    Sim.spawn sim ~name:"booter" ~home:app (fun sim ->
        Sim.yield sim;
        Sim.microreboot sim relay;
        Sim.microreboot sim gate;
        ignore (Sim.wakeup sim !waiter_tid))
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check (option int)) "diverted to the outer component" (Some relay)
    !diverted

(* Sim.microreboot emits one Divert per thread suspended inside the
   rebooted component, in the iteration order of its fiber table; the
   event stream, and every report built from it, shows that order. The
   order pinned here is the generic-Hashtbl one, which the invocation
   path's integer tables must leave alone. *)
let test_divert_order () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let gate = Sim.register sim (gate_spec ()) in
  Sim.grant sim ~client:app ~server:gate;
  let blocked = ref [] in
  for i = 1 to 6 do
    ignore
      (Sim.spawn sim ~name:(Printf.sprintf "waiter%d" i) ~home:app (fun sim ->
           blocked := Sim.current_tid sim :: !blocked;
           try ignore (Sim.invoke sim ~server:gate "wait" [])
           with Comp.Diverted _ -> ()))
  done;
  (* a lower priority: it runs once all six are blocked in the gate *)
  ignore
    (Sim.spawn sim ~prio:20 ~name:"booter" ~home:app (fun sim ->
         Sim.mark_failed sim gate ~detector:"test";
         Sim.microreboot sim gate;
         List.iter (fun tid -> ignore (Sim.wakeup sim tid)) (List.rev !blocked)));
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  let victims =
    List.filter_map
      (fun (e : Sg_obs.Event.t) ->
        match e.kind with
        | Sg_obs.Event.Divert { cid; victim } when cid = gate -> Some victim
        | _ -> None)
      (Sg_obs.Sink.events (Sim.obs sim))
  in
  Alcotest.(check (list int)) "divert order" [ 6; 2; 3; 5; 4; 1 ] victims

let test_fatal_segfault () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let bad =
    Sim.register sim
      (trivial_spec ~name:"bad"
         ~dispatch:(fun _ cid _ _ -> raise (Comp.Sys_segfault { cid }))
         ())
  in
  Sim.grant sim ~client:app ~server:bad;
  let _ =
    Sim.spawn sim ~name:"w" ~home:app (fun sim ->
        ignore (Sim.invoke sim ~server:bad "boom" []))
  in
  match Sim.run sim with
  | Sim.Fatal (Sim.Fatal_segfault cid) -> Alcotest.(check int) "cid" bad cid
  | r -> Alcotest.failf "expected segfault, got %a" Sim.pp_run_result r

let test_upcall () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let svc = Sim.register sim (trivial_spec ~name:"svc" ()) in
  Sim.grant sim ~client:app ~server:svc;
  Sim.register_upcall sim ~client:app "rebuild" (fun _ args ->
      match args with
      | [ Comp.VInt x ] -> Ok (Comp.VInt (x * 2))
      | _ -> Error Comp.EINVAL);
  let got = ref 0 in
  let _ =
    Sim.spawn sim ~name:"w" ~home:app (fun sim ->
        match Sim.upcall sim ~client:app "rebuild" [ Comp.VInt 21 ] with
        | Ok (Comp.VInt v) -> got := v
        | _ -> ())
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check int) "upcall result" 42 !got

let test_dispatch_hook_runs () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let poison = ref false in
  let counter = Sim.register sim (counter_spec poison) in
  Sim.grant sim ~client:app ~server:counter;
  let seen = ref [] in
  Sim.set_on_dispatch sim (Some (fun _ cid fn -> seen := (cid, fn) :: !seen));
  let _ =
    Sim.spawn sim ~name:"w" ~home:app (fun sim ->
        ignore (Sim.invoke sim ~server:counter "inc" []))
  in
  ignore (Sim.run sim);
  Alcotest.(check bool) "hook saw dispatch" true (!seen = [ (counter, "inc") ])

(* {1 The ways out of Sim.invoke}

   Each case leaves an invocation a different way. Whatever the way,
   the caller's invocation stack is restored, only a crash of the
   server itself marks it failed, and the span's events come in the
   order begin, the crash if any, then a faulted end. *)

let span_events sim ~tid =
  List.filter_map
    (fun (e : Sg_obs.Event.t) ->
      if e.tid <> tid then None
      else
        match e.kind with
        | Sg_obs.Event.Span_begin { server; _ } -> Some (Printf.sprintf "begin %d" server)
        | Sg_obs.Event.Crash { cid; _ } -> Some (Printf.sprintf "crash %d" cid)
        | Sg_obs.Event.Span_end { server; ok; _ } ->
            Some (Printf.sprintf "end %d ok=%b" server ok)
        | _ -> None)
    (Sg_obs.Sink.events (Sim.obs sim))

(* run [body] on a fresh thread homed in [app]; returns its tid and the
   invocation stacks before and after *)
let exit_case sim ~app body =
  let before = ref [] and after = ref [] in
  let tid =
    Sim.spawn sim ~name:"caller" ~home:app (fun sim ->
        before := (Sim.current_tcb sim).Sg_kernel.Ktcb.stack;
        body sim;
        after := (Sim.current_tcb sim).Sg_kernel.Ktcb.stack)
  in
  (tid, before, after)

let check_stack before after =
  Alcotest.(check (list int)) "invocation stack restored" !before !after

let test_exit_server_crash () =
  let sim = Sim.create () in
  Sg_obs.Sink.set_retention (Sim.obs sim) Sg_obs.Sink.All;
  let app = Sim.register sim (trivial_spec ()) in
  let poison = ref true in
  let counter = Sim.register sim (counter_spec poison) in
  Sim.grant sim ~client:app ~server:counter;
  let raised = ref false in
  let tid, before, after =
    exit_case sim ~app (fun sim ->
        try ignore (Sim.invoke sim ~server:counter "inc" [])
        with Comp.Crash { cid; _ } when cid = counter -> raised := true)
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check bool) "Crash reached the client" true !raised;
  check_stack before after;
  Alcotest.(check bool) "server marked failed" true (Sim.is_failed sim counter);
  Alcotest.(check (list string)) "events"
    [ Printf.sprintf "begin %d" counter; Printf.sprintf "crash %d" counter;
      Printf.sprintf "end %d ok=false" counter ]
    (span_events sim ~tid)

let test_exit_diverted () =
  let sim = Sim.create () in
  Sg_obs.Sink.set_retention (Sim.obs sim) Sg_obs.Sink.All;
  let app = Sim.register sim (trivial_spec ()) in
  let gate = Sim.register sim (gate_spec ()) in
  Sim.grant sim ~client:app ~server:gate;
  let diverted = ref false in
  let tid, before, after =
    exit_case sim ~app (fun sim ->
        try ignore (Sim.invoke sim ~server:gate "wait" [])
        with Comp.Diverted { cid } when cid = gate -> diverted := true)
  in
  ignore
    (Sim.spawn sim ~prio:20 ~name:"booter" ~home:app (fun sim ->
         Sim.microreboot sim gate;
         ignore (Sim.wakeup sim tid)));
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check bool) "Diverted reached the client" true !diverted;
  check_stack before after;
  Alcotest.(check bool) "a divert marks nothing failed" false (Sim.is_failed sim gate);
  Alcotest.(check (list string)) "events"
    [ Printf.sprintf "begin %d" gate; Printf.sprintf "end %d ok=false" gate ]
    (span_events sim ~tid)

let test_exit_unrelated_exception () =
  let sim = Sim.create () in
  Sg_obs.Sink.set_retention (Sim.obs sim) Sg_obs.Sink.All;
  let app = Sim.register sim (trivial_spec ()) in
  let other = Sim.register sim (trivial_spec ~name:"other" ()) in
  let relay =
    Sim.register sim
      (trivial_spec ~name:"relay"
         ~dispatch:(fun _ _ fn _ ->
           match fn with
           | "crash-other" -> raise (Comp.Crash { cid = other; detector = "test" })
           | _ -> failwith "relay: boom")
         ())
  in
  Sim.grant sim ~client:app ~server:relay;
  let caught = ref [] in
  let tid, before, after =
    exit_case sim ~app (fun sim ->
        (try ignore (Sim.invoke sim ~server:relay "crash-other" [])
         with Comp.Crash { cid; _ } -> caught := Printf.sprintf "crash %d" cid :: !caught);
        try ignore (Sim.invoke sim ~server:relay "boom" [])
        with Failure msg -> caught := msg :: !caught)
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check (list string)) "both exceptions reached the client"
    [ "relay: boom"; Printf.sprintf "crash %d" other ]
    !caught;
  check_stack before after;
  Alcotest.(check bool) "the server is not marked failed" false (Sim.is_failed sim relay);
  Alcotest.(check bool) "nor is the component the crash names" false
    (Sim.is_failed sim other);
  let span = [ Printf.sprintf "begin %d" relay; Printf.sprintf "end %d ok=false" relay ] in
  Alcotest.(check (list string)) "events" (span @ span) (span_events sim ~tid)

let test_exit_eperm () =
  let sim = Sim.create () in
  Sg_obs.Sink.set_retention (Sim.obs sim) Sg_obs.Sink.All;
  let app = Sim.register sim (trivial_spec ()) in
  let poison = ref false in
  let counter = Sim.register sim (counter_spec poison) in
  let got = ref None in
  let tid, before, after =
    exit_case sim ~app (fun sim -> got := Some (Sim.invoke sim ~server:counter "inc" []))
  in
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check bool) "EPERM" true (!got = Some (Error Comp.EPERM));
  check_stack before after;
  Alcotest.(check bool) "nothing marked failed" false (Sim.is_failed sim counter);
  Alcotest.(check (list string)) "no span" [] (span_events sim ~tid);
  Alcotest.(check int) "no invocation counted" 0 (Sim.invocations sim)

(* {1 Allocation budget}

   The fixed bookkeeping of one invocation (span events, capability
   check, handler frame, metrics fold, stub lookups) is counted in minor
   words, which do not depend on host speed. The ceilings sit at what
   the invocation path allocates now; a change that adds boxing on it
   fails here before any benchmark notices. A null invocation's 12
   words are its two span events and the invocation-stack cell; a lock
   call adds the client's argument list and the stub, server and lock
   bookkeeping (DESIGN.md §3.5). *)

let words_per_call ~calls f =
  let before = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. before) /. float_of_int calls

let check_budget what ~ceiling words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words per invocation, ceiling %.0f" what words
       ceiling)
    true (words <= ceiling)

let test_null_invocation_budget () =
  let sim = Sim.create () in
  let app = Sim.register sim (trivial_spec ()) in
  let null = Sim.register sim (trivial_spec ~name:"null" ()) in
  Sim.grant sim ~client:app ~server:null;
  let port = Port.raw null in
  let n = 10_000 in
  let words = ref nan in
  ignore
    (Sim.spawn sim ~name:"w" ~home:app (fun sim ->
         ignore (Port.call port sim "null" []);
         words :=
           words_per_call ~calls:n (fun () ->
               for _ = 1 to n do
                 ignore (Port.call port sim "null" [])
               done)));
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  Alcotest.(check int) "every invocation counted" (n + 1) (Sim.invocations sim);
  check_budget "null server via Port.raw" ~ceiling:12. !words

let test_superglue_lock_budget () =
  let module Sysbuild = Sg_components.Sysbuild in
  let module Lock = Sg_components.Lock in
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"lock" in
  let pairs = 10_000 in
  let words = ref nan in
  ignore
    (Sim.spawn sim ~name:"w" ~home:app (fun sim ->
         let l = Lock.alloc port sim in
         Lock.take port sim l;
         Lock.release port sim l;
         words :=
           words_per_call ~calls:(2 * pairs) (fun () ->
               for _ = 1 to pairs do
                 Lock.take port sim l;
                 Lock.release port sim l
               done)));
  Alcotest.(check bool) "completed" true (Sim.run sim = Sim.Completed);
  check_budget "lock_take/lock_release via the superglue stubs" ~ceiling:37.
    !words

let test_determinism () =
  (* Two identical simulations produce identical clocks and counters. *)
  let build () =
    let sim = Sim.create ~seed:7 () in
    let app = Sim.register sim (trivial_spec ()) in
    let poison = ref false in
    let counter = Sim.register sim (counter_spec poison) in
    Sim.grant sim ~client:app ~server:counter;
    for i = 1 to 3 do
      ignore
        (Sim.spawn sim ~prio:i ~name:(Printf.sprintf "w%d" i) ~home:app
           (fun sim ->
             for _ = 1 to 10 do
               ignore (Sim.invoke sim ~server:counter "inc" []);
               Sim.yield sim
             done))
    done;
    ignore (Sim.run sim);
    (Sim.now sim, Sim.invocations sim)
  in
  let a = build () and b = build () in
  Alcotest.(check bool) "identical runs" true (a = b)

let () =
  Alcotest.run "sg_os"
    [
      ( "fibers",
        [
          Alcotest.test_case "spawn and run" `Quick test_spawn_run;
          Alcotest.test_case "priority order" `Quick test_priority_order;
          Alcotest.test_case "block/wakeup ping-pong" `Quick test_block_wakeup_pingpong;
          Alcotest.test_case "sleep advances clock" `Quick test_sleep_advances_clock;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
        ] );
      ( "invocation",
        [
          Alcotest.test_case "basic" `Quick test_invoke_basic;
          Alcotest.test_case "capability denied" `Quick test_invoke_without_capability;
          Alcotest.test_case "crash marks failed" `Quick test_crash_marks_failed_and_vectored;
          Alcotest.test_case "block inside server" `Quick test_block_inside_server;
          Alcotest.test_case "dispatch hook" `Quick test_dispatch_hook_runs;
          Alcotest.test_case "exit: server crash" `Quick test_exit_server_crash;
          Alcotest.test_case "exit: diverted after reboot" `Quick test_exit_diverted;
          Alcotest.test_case "exit: unrelated exception" `Quick
            test_exit_unrelated_exception;
          Alcotest.test_case "exit: EPERM" `Quick test_exit_eperm;
        ] );
      ( "recovery-substrate",
        [
          Alcotest.test_case "microreboot" `Quick test_microreboot_recovers;
          Alcotest.test_case "divert on reboot" `Quick test_divert_on_reboot;
          Alcotest.test_case "divert order" `Quick test_divert_order;
          Alcotest.test_case "divert to the outermost" `Quick test_divert_outermost;
          Alcotest.test_case "fatal segfault" `Quick test_fatal_segfault;
          Alcotest.test_case "upcall" `Quick test_upcall;
        ] );
      ("determinism", [ Alcotest.test_case "same seed same run" `Quick test_determinism ]);
      ( "allocation-budget",
        [
          Alcotest.test_case "null invocation" `Quick test_null_invocation_budget;
          Alcotest.test_case "superglue lock call" `Quick test_superglue_lock_budget;
        ] );
    ]
