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
        ] );
      ( "recovery-substrate",
        [
          Alcotest.test_case "microreboot" `Quick test_microreboot_recovers;
          Alcotest.test_case "divert on reboot" `Quick test_divert_on_reboot;
          Alcotest.test_case "divert order" `Quick test_divert_order;
          Alcotest.test_case "fatal segfault" `Quick test_fatal_segfault;
          Alcotest.test_case "upcall" `Quick test_upcall;
        ] );
      ("determinism", [ Alcotest.test_case "same seed same run" `Quick test_determinism ]);
    ]
