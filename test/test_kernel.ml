(* Unit and property tests for Sg_kernel. *)

open Sg_kernel

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check int) "starts at 0" 0 (Clock.now c);
  Clock.advance c 150;
  Alcotest.(check int) "advance" 150 (Clock.now c);
  Clock.advance_to c 100;
  Alcotest.(check int) "advance_to past is no-op" 150 (Clock.now c);
  Clock.advance_to c 400;
  Alcotest.(check int) "advance_to future" 400 (Clock.now c);
  Alcotest.check_raises "negative advance" (Invalid_argument "Clock.advance: negative duration")
    (fun () -> Clock.advance c (-1))

let test_clock_conversions () =
  Alcotest.(check int) "us" 1500 (Clock.ns_of_us 1.5);
  Alcotest.(check (float 1e-9)) "back" 1.5 (Clock.us_of_ns 1500);
  Alcotest.(check (float 1e-9)) "seconds" 2.0 (Clock.s_of_ns 2_000_000_000)

let test_regfile () =
  let rf = Regfile.create () in
  Alcotest.(check int) "init zero" 0 (Regfile.get rf Reg.EAX);
  Regfile.set rf Reg.EAX 0xFF;
  Alcotest.(check int) "set/get" 0xFF (Regfile.get rf Reg.EAX);
  Regfile.flip_bit rf Reg.EAX 0;
  Alcotest.(check int) "flip" 0xFE (Regfile.get rf Reg.EAX);
  Regfile.apply_mask rf Reg.EAX 0xFF;
  Alcotest.(check int) "mask" 0x01 (Regfile.get rf Reg.EAX);
  let copy = Regfile.copy rf in
  Regfile.set rf Reg.EAX 0;
  Alcotest.(check int) "copy is independent" 0x01 (Regfile.get copy Reg.EAX)

let test_reg_roundtrip () =
  Array.iter
    (fun r ->
      match Reg.of_string (Reg.to_string r) with
      | Some r' -> Alcotest.(check bool) "roundtrip" true (Reg.equal r r')
      | None -> Alcotest.fail "of_string failed")
    Reg.all;
  Alcotest.(check int) "eight registers" 8 (Array.length Reg.all);
  Alcotest.(check int) "six general" 6 (Array.length Reg.general)

let test_reg_index () =
  Array.iteri
    (fun i r -> Alcotest.(check int) (Reg.to_string r) i (Reg.index r))
    Reg.all;
  (* equal and compare go through [index]; the order is the variant's *)
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          Alcotest.(check int) "compare" (Stdlib.compare a b) (Reg.compare a b);
          Alcotest.(check bool) "equal" (a = b) (Reg.equal a b))
        Reg.all)
    Reg.all

let test_ktcb_lifecycle () =
  let t = Ktcb.create () in
  let a = Ktcb.spawn t ~name:"a" ~prio:5 ~home:1 in
  let b = Ktcb.spawn t ~name:"b" ~prio:3 ~home:1 in
  Alcotest.(check int) "count" 2 (Ktcb.count t);
  Alcotest.(check int) "distinct tids" 2 (List.length (Ktcb.all t));
  (match Ktcb.runnable t with
  | first :: _ ->
      Alcotest.(check int) "highest prio first" b.Ktcb.tid first.Ktcb.tid
  | [] -> Alcotest.fail "no runnable");
  a.Ktcb.state <- Ktcb.Blocked { in_component = 7 };
  Alcotest.(check int) "blocked_in" 1 (List.length (Ktcb.blocked_in t 7));
  Alcotest.(check int) "not blocked elsewhere" 0 (List.length (Ktcb.blocked_in t 8));
  Ktcb.exit_thread t a.Ktcb.tid;
  Alcotest.(check int) "runnable after exit" 1 (List.length (Ktcb.runnable t))

let test_ktcb_stack () =
  let t = Ktcb.create () in
  let a = Ktcb.spawn t ~name:"a" ~prio:5 ~home:1 in
  Alcotest.(check (option int)) "home" (Some 1) (Ktcb.current_component a);
  Ktcb.enter_component a 4;
  Ktcb.enter_component a 9;
  Alcotest.(check (option int)) "innermost" (Some 9) (Ktcb.current_component a);
  Alcotest.(check bool) "in_stack middle" true (Ktcb.in_stack a 4);
  Alcotest.(check bool) "not in stack" false (Ktcb.in_stack a 5);
  Alcotest.(check int) "executing_in innermost" 1
    (List.length (Ktcb.executing_in t 9));
  Alcotest.(check int) "executing_in not middle" 0
    (List.length (Ktcb.executing_in t 4));
  Alcotest.(check int) "threads_inside middle" 1
    (List.length (Ktcb.threads_inside t 4));
  Ktcb.leave_component a;
  Alcotest.(check (option int)) "after leave" (Some 4) (Ktcb.current_component a)

let test_ktcb_sleepers () =
  let t = Ktcb.create () in
  let a = Ktcb.spawn t ~name:"a" ~prio:5 ~home:1 in
  a.Ktcb.state <- Ktcb.Sleeping { until_ns = 100; in_component = 2 };
  Alcotest.(check int) "sleeper count" 1 (List.length (Ktcb.sleepers t));
  Alcotest.(check int) "sleeping counts as blocked_in" 1
    (List.length (Ktcb.blocked_in t 2))

let test_captbl () =
  let c = Captbl.create () in
  Captbl.grant c ~client:1 ~server:2;
  Captbl.grant c ~client:1 ~server:3;
  Captbl.grant c ~client:4 ~server:2;
  Alcotest.(check bool) "allowed" true (Captbl.allowed c ~client:1 ~server:2);
  Alcotest.(check bool) "not allowed" false (Captbl.allowed c ~client:2 ~server:1);
  Alcotest.(check (list int)) "servers_of" [ 2; 3 ] (Captbl.servers_of c ~client:1);
  Alcotest.(check (list int)) "clients_of" [ 1; 4 ] (Captbl.clients_of c ~server:2);
  Captbl.revoke c ~client:1 ~server:2;
  Alcotest.(check bool) "revoked" false (Captbl.allowed c ~client:1 ~server:2);
  (* a (client, server) pair is one packed int: the widest cid keeps
     its pair apart from its neighbours, a wider one is refused *)
  let top = (1 lsl 30) - 1 in
  Captbl.grant c ~client:top ~server:top;
  Alcotest.(check bool) "widest pair" true (Captbl.allowed c ~client:top ~server:top);
  Alcotest.(check bool) "swapped pair" false (Captbl.allowed c ~client:top ~server:1);
  Alcotest.(check (list int)) "servers_of widest" [ top ] (Captbl.servers_of c ~client:top);
  Alcotest.(check bool) "out of range is never allowed" false
    (Captbl.allowed c ~client:(top + 1) ~server:2);
  Alcotest.check_raises "out of range is refused"
    (Invalid_argument "Captbl: cid pair (-1, 2) out of range") (fun () ->
      Captbl.grant c ~client:(-1) ~server:2)

let test_frames () =
  let f = Frames.create ~total_frames:2 () in
  let fr1 = Option.get (Frames.alloc_frame f) in
  let fr2 = Option.get (Frames.alloc_frame f) in
  Alcotest.(check bool) "exhausted" true (Frames.alloc_frame f = None);
  Frames.free_frame f fr1;
  Alcotest.(check bool) "reuse" true (Frames.alloc_frame f = Some fr1);
  Alcotest.(check bool) "map ok" true (Frames.map f ~cid:1 ~vaddr:0x1000 fr1 = Ok ());
  Alcotest.(check bool) "double map fails" true
    (Frames.map f ~cid:1 ~vaddr:0x1000 fr2 = Error `Exists);
  Alcotest.(check (option int)) "lookup" (Some fr1) (Frames.lookup f ~cid:1 ~vaddr:0x1000);
  Alcotest.(check bool) "unmap" true (Frames.unmap f ~cid:1 ~vaddr:0x1000 = Ok fr1);
  Alcotest.(check bool) "unmap absent" true
    (Frames.unmap f ~cid:1 ~vaddr:0x1000 = Error `Absent)

let test_frames_reflection () =
  let f = Frames.create () in
  let fr1 = Option.get (Frames.alloc_frame f) in
  let fr2 = Option.get (Frames.alloc_frame f) in
  ignore (Frames.map f ~cid:1 ~vaddr:0x2000 fr2);
  ignore (Frames.map f ~cid:1 ~vaddr:0x1000 fr1);
  ignore (Frames.map f ~cid:2 ~vaddr:0x1000 fr1);
  Alcotest.(check (list (pair int int)))
    "mappings_of sorted" [ (0x1000, fr1); (0x2000, fr2) ]
    (Frames.mappings_of f ~cid:1);
  (* (cid, vaddr) is one packed int: the top page of a 32-bit space
     stays with its cid, and a wider address is refused *)
  let top = (1 lsl 32) - 0x1000 in
  ignore (Frames.map f ~cid:1 ~vaddr:top fr1);
  Alcotest.(check (list (pair int int)))
    "top page" [ (0x1000, fr1) ] (Frames.mappings_of f ~cid:2);
  Alcotest.(check (option int)) "top page lookup" (Some fr1)
    (Frames.lookup f ~cid:1 ~vaddr:top);
  Alcotest.(check (option int)) "not another cid's" None
    (Frames.lookup f ~cid:2 ~vaddr:top);
  List.iter
    (fun (cid, vaddr) ->
      match Frames.lookup f ~cid ~vaddr with
      | _ -> Alcotest.failf "(%d, %d) accepted" cid vaddr
      | exception Invalid_argument _ -> ())
    [ (1, 1 lsl 32); (1, -0x1000); (-1, 0x1000); (1 lsl 30, 0x1000) ]

(* Usage schedule classification: the SWIFI outcome model. *)

let sched_of events = Usage.make ~duration_ns:1000 events

let test_usage_dead_register () =
  let u = sched_of [ { Usage.at = 100; reg = Reg.EAX; use = Usage.Write } ] in
  Alcotest.(check string) "never-read reg" "undetected"
    (Usage.verdict_to_string (Usage.classify u ~reg:Reg.EBX ~bit:5 ~at:0))

let test_usage_overwritten () =
  let u = sched_of [ { Usage.at = 100; reg = Reg.EAX; use = Usage.Write } ] in
  Alcotest.(check string) "overwritten" "undetected"
    (Usage.verdict_to_string (Usage.classify u ~reg:Reg.EAX ~bit:5 ~at:0))

let test_usage_pointer () =
  let u =
    sched_of
      [ { Usage.at = 100; reg = Reg.ESI; use = Usage.Read_pointer { bound_bits = 18; escapes = false } } ]
  in
  Alcotest.(check string) "high bit pagefaults" "failstop:pagefault"
    (Usage.verdict_to_string (Usage.classify u ~reg:Reg.ESI ~bit:25 ~at:0));
  Alcotest.(check string) "low bit corrupts, caught by assert" "failstop:assert"
    (Usage.verdict_to_string (Usage.classify u ~reg:Reg.ESI ~bit:3 ~at:0))

let test_usage_pointer_escapes () =
  let u =
    sched_of
      [ { Usage.at = 100; reg = Reg.ESI; use = Usage.Read_pointer { bound_bits = 18; escapes = true } } ]
  in
  Alcotest.(check string) "escaping corruption propagates" "propagated"
    (Usage.verdict_to_string (Usage.classify u ~reg:Reg.ESI ~bit:3 ~at:0))

let test_usage_stackptr () =
  let u =
    sched_of [ { Usage.at = 50; reg = Reg.ESP; use = Usage.Read_stackptr { red_bits = 8 } } ]
  in
  Alcotest.(check string) "low bit segfaults" "segfault"
    (Usage.verdict_to_string (Usage.classify u ~reg:Reg.ESP ~bit:3 ~at:0));
  Alcotest.(check string) "high bit pagefaults" "failstop:pagefault"
    (Usage.verdict_to_string (Usage.classify u ~reg:Reg.ESP ~bit:30 ~at:0))

let test_usage_after_window () =
  let u = sched_of [ { Usage.at = 100; reg = Reg.EAX; use = Usage.Read_data Usage.Checked } ] in
  Alcotest.(check string) "flip after last use is dead" "undetected"
    (Usage.verdict_to_string (Usage.classify u ~reg:Reg.EAX ~bit:5 ~at:500))

let test_usage_data_sinks () =
  let mk sink = sched_of [ { Usage.at = 10; reg = Reg.EDX; use = Usage.Read_data sink } ] in
  let v sink bit =
    Usage.verdict_to_string (Usage.classify (mk sink) ~reg:Reg.EDX ~bit ~at:0)
  in
  Alcotest.(check string) "checked" "failstop:assert" (v Usage.Checked 5);
  Alcotest.(check string) "returned" "propagated" (v Usage.Returned 5);
  Alcotest.(check string) "scratch" "undetected" (v Usage.Scratch 5);
  Alcotest.(check string) "loop high bit hangs" "hang" (v Usage.Loop_bound 25);
  Alcotest.(check string) "loop mid bit asserts" "failstop:assert" (v Usage.Loop_bound 10);
  Alcotest.(check string) "loop low bit masked" "undetected" (v Usage.Loop_bound 2)

let test_usage_window_builder () =
  let events =
    Usage.window ~duration_ns:300 ~stride:100
      ~per_reg:[ (Reg.EAX, Usage.Write) ] ()
  in
  Alcotest.(check int) "4 repetitions (0,100,200,300)" 4 (List.length events)

let prop_classify_pure =
  QCheck.Test.make ~name:"classification is deterministic" ~count:300
    QCheck.(triple (int_bound 7) (int_bound 31) (int_bound 999))
    (fun (ri, bit, at) ->
      let reg = Sg_kernel.Reg.all.(ri) in
      let u =
        Usage.make ~duration_ns:1000
          (Usage.window ~duration_ns:1000 ~stride:50
             ~per_reg:
               [
                 (Reg.EAX, Usage.Read_data Usage.Checked);
                 (Reg.ESI, Usage.Read_pointer { bound_bits = 18; escapes = false });
                 (Reg.ESP, Usage.Read_stackptr { red_bits = 8 });
                 (Reg.ECX, Usage.Write);
               ]
             ())
      in
      Usage.classify u ~reg ~bit ~at = Usage.classify u ~reg ~bit ~at)

(* The linear scan [Usage.classify] used before the per-register index:
   the first event in [events] order with [at' >= at] on the same
   register decides. Kept here as the reference the index must match. *)
let classify_by_scan (u : Usage.t) ~reg ~bit ~at =
  let next =
    Array.fold_left
      (fun acc (e : Usage.event) ->
        match acc with
        | Some _ -> acc
        | None -> if e.at >= at && e.reg = reg then Some e else None)
      None u.Usage.events
  in
  match next with
  | None -> Usage.Undetected
  | Some { use = Usage.Write; _ } -> Usage.Undetected
  | Some { use = Usage.Read_pointer { bound_bits; escapes }; _ } ->
      if bit >= bound_bits then Usage.Failstop "pagefault"
      else if escapes then Usage.Propagated
      else Usage.Failstop "assert"
  | Some { use = Usage.Read_stackptr { red_bits }; _ } ->
      if bit < red_bits then Usage.Segfault else Usage.Failstop "pagefault"
  | Some { use = Usage.Read_data sink; _ } -> (
      match sink with
      | Usage.Checked -> Usage.Failstop "assert"
      | Usage.Returned -> Usage.Propagated
      | Usage.Loop_bound ->
          if bit >= 20 then Usage.Hang
          else if bit >= 4 then Usage.Failstop "assert"
          else Usage.Undetected
      | Usage.Scratch -> Usage.Undetected)

(* a random schedule of 0-300 events over a short window (so offsets
   collide), with deliberate duplicate (at, reg) pairs carrying other
   uses, and 64 flips at offsets in [0, duration + 1] *)
let gen_schedule_and_flips =
  let open QCheck.Gen in
  let use =
    oneof
      [
        return Usage.Write;
        map2
          (fun bound_bits escapes -> Usage.Read_pointer { bound_bits; escapes })
          (int_range 0 32) bool;
        map (fun red_bits -> Usage.Read_stackptr { red_bits }) (int_range 0 32);
        map
          (fun s -> Usage.Read_data s)
          (oneofl [ Usage.Checked; Usage.Returned; Usage.Loop_bound; Usage.Scratch ]);
      ]
  in
  let reg = map (fun i -> Reg.all.(i)) (int_bound 7) in
  int_range 0 400 >>= fun duration_ns ->
  int_range 0 300 >>= fun n ->
  list_repeat n
    (map3 (fun at reg use -> { Usage.at; reg; use }) (int_range 0 duration_ns) reg use)
  >>= fun events ->
  (if events = [] then return []
   else
     list_size (int_bound 40)
       (map2
          (fun (e : Usage.event) use -> { e with Usage.use })
          (oneofl events) use))
  >>= fun dups ->
  shuffle_l (events @ dups) >>= fun events ->
  list_repeat 64 (triple reg (int_bound 31) (int_range 0 (duration_ns + 1)))
  >|= fun flips -> (duration_ns, events, flips)

let prop_classify_matches_scan =
  QCheck.Test.make ~name:"index agrees with the linear scan"
    ~count:500
    (QCheck.make
       ~print:(fun (d, evs, flips) ->
         Printf.sprintf "duration=%d events=[%s] flips=[%s]" d
           (String.concat "; "
              (List.map
                 (fun (e : Usage.event) ->
                   Printf.sprintf "%d:%s" e.at (Reg.to_string e.reg))
                 evs))
           (String.concat "; "
              (List.map
                 (fun (r, b, a) -> Printf.sprintf "%s/%d@%d" (Reg.to_string r) b a)
                 flips)))
       gen_schedule_and_flips)
    (fun (duration_ns, events, flips) ->
      let u = Usage.make ~duration_ns events in
      List.for_all
        (fun (reg, bit, at) ->
          Usage.classify u ~reg ~bit ~at = classify_by_scan u ~reg ~bit ~at)
        flips)

(* [Usage.cyclic] lays out directly what [Usage.make] sorts: the same
   per-register index, and [events] sorted by offset *)
let prop_cyclic_matches_make =
  let open QCheck.Gen in
  let use =
    oneofl
      [
        Usage.Write;
        Usage.Read_data Usage.Checked;
        Usage.Read_data Usage.Returned;
        Usage.Read_pointer { bound_bits = 17; escapes = true };
        Usage.Read_stackptr { red_bits = 9 };
      ]
  in
  let gen =
    triple (int_range 0 400) (int_range 1 60)
      (flatten_l
         (Array.to_list
            (Array.map
               (fun reg -> opt (map (fun c -> (reg, c)) (list_size (int_range 1 12) use)))
               Reg.all)))
    >|= fun (d, s, ps) -> (d, s, List.filter_map Fun.id ps)
  in
  QCheck.Test.make ~name:"cyclic equals make of the same events" ~count:300
    (QCheck.make gen) (fun (duration_ns, stride, patterns) ->
      let c = Usage.cyclic ~duration_ns ~stride patterns in
      let events =
        List.concat_map
          (fun (reg, cycle) ->
            let n = List.length cycle in
            List.init ((duration_ns / stride) + 1) (fun k ->
                { Usage.at = k * stride; reg; use = List.nth cycle (k mod n) }))
          patterns
      in
      let m = Usage.make ~duration_ns events in
      let sorted = ref true in
      Array.iteri
        (fun i (e : Usage.event) ->
          if i > 0 && c.Usage.events.(i - 1).Usage.at > e.Usage.at then sorted := false)
        c.Usage.events;
      c.Usage.by_reg = m.Usage.by_reg
      && c.Usage.reg_start = m.Usage.reg_start
      && c.Usage.duration_ns = m.Usage.duration_ns
      && !sorted
      && List.sort compare (Array.to_list c.Usage.events)
         = List.sort compare (Array.to_list m.Usage.events))

let test_cost_scale () =
  let c = Cost.default in
  Alcotest.(check bool) "scale by 1.0 is the identity" true (Cost.scale c 1.0 = c);
  let doubled = Cost.scale c 2.0 in
  Alcotest.(check int) "doubles invocation" (2 * c.Cost.invocation_ns)
    doubled.Cost.invocation_ns;
  Alcotest.(check int) "doubles wakeup" (2 * c.Cost.wakeup_ns)
    doubled.Cost.wakeup_ns;
  (* int_of_float truncates toward zero: 620 * 1.5 = 930, 105 * 1.5 = 157.5 *)
  let half_up = Cost.scale c 1.5 in
  Alcotest.(check int) "truncates fractional ns" 157
    half_up.Cost.reboot_ns_per_kb;
  Alcotest.(check int) "exact when divisible" 930 half_up.Cost.invocation_ns;
  let zero = Cost.scale c 0.0 in
  Alcotest.(check int) "scale to zero" 0 zero.Cost.dispatch_ns

let test_kernel_aggregate () =
  let k = Kernel.create () in
  Alcotest.(check int) "time 0" 0 (Kernel.now k);
  Kernel.charge k 10;
  Alcotest.(check int) "charged" 10 (Kernel.now k)

let () =
  Alcotest.run "sg_kernel"
    [
      ( "clock",
        [
          Alcotest.test_case "basics" `Quick test_clock;
          Alcotest.test_case "conversions" `Quick test_clock_conversions;
        ] );
      ( "regfile",
        [
          Alcotest.test_case "ops" `Quick test_regfile;
          Alcotest.test_case "reg names" `Quick test_reg_roundtrip;
          Alcotest.test_case "reg index" `Quick test_reg_index;
        ] );
      ( "ktcb",
        [
          Alcotest.test_case "lifecycle" `Quick test_ktcb_lifecycle;
          Alcotest.test_case "invocation stack" `Quick test_ktcb_stack;
          Alcotest.test_case "sleepers" `Quick test_ktcb_sleepers;
        ] );
      ("captbl", [ Alcotest.test_case "grant/revoke" `Quick test_captbl ]);
      ( "frames",
        [
          Alcotest.test_case "alloc/map" `Quick test_frames;
          Alcotest.test_case "reflection" `Quick test_frames_reflection;
        ] );
      ( "usage",
        [
          Alcotest.test_case "dead register" `Quick test_usage_dead_register;
          Alcotest.test_case "overwritten" `Quick test_usage_overwritten;
          Alcotest.test_case "pointer" `Quick test_usage_pointer;
          Alcotest.test_case "pointer escapes" `Quick test_usage_pointer_escapes;
          Alcotest.test_case "stack pointer" `Quick test_usage_stackptr;
          Alcotest.test_case "after window" `Quick test_usage_after_window;
          Alcotest.test_case "data sinks" `Quick test_usage_data_sinks;
          Alcotest.test_case "window builder" `Quick test_usage_window_builder;
          QCheck_alcotest.to_alcotest prop_classify_pure;
          QCheck_alcotest.to_alcotest prop_classify_matches_scan;
          QCheck_alcotest.to_alcotest prop_cyclic_matches_make;
        ] );
      ("cost", [ Alcotest.test_case "scale" `Quick test_cost_scale ]);
      ("kernel", [ Alcotest.test_case "aggregate" `Quick test_kernel_aggregate ]);
    ]
