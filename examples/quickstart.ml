(* Quickstart: build the componentized OS with SuperGlue-generated
   recovery stubs, crash the lock service while threads contend a lock,
   and watch the workload complete correctly anyway.

     dune exec examples/quickstart.exe
*)

module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Sysbuild = Sg_components.Sysbuild
module Lock = Sg_components.Lock

let () =
  (* a full system: scheduler, memory manager, RamFS, lock, event and
     timer services, with SuperGlue stubs compiled from idl/*.sgidl *)
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let lock_port = sys.Sysbuild.sys_port ~client:app ~iface:"lock" in

  (* crash the lock service on its 10th, 20th, ... dispatch *)
  let dispatches = ref 0 in
  Sim.set_on_dispatch sim
    (Some
       (fun sim cid _fn ->
         if cid = sys.Sysbuild.sys_services.lock then begin
           incr dispatches;
           if !dispatches mod 10 = 0 then begin
             Printf.printf "[%8d ns] !! transient fault crashes the lock service\n"
               (Sim.now sim);
             Sim.mark_failed sim cid ~detector:"quickstart";
             raise (Comp.Crash { cid; detector = "quickstart" })
           end
         end));

  let in_cs = ref 0 in
  let violations = ref 0 in
  let lock_id = ref None in
  let worker name =
    ignore
      (Sim.spawn sim ~prio:5 ~name ~home:app (fun sim ->
           let id =
             match !lock_id with
             | Some id -> id
             | None ->
                 let id = Lock.alloc lock_port sim in
                 lock_id := Some id;
                 id
           in
           for i = 1 to 5 do
             Lock.take lock_port sim id;
             incr in_cs;
             if !in_cs <> 1 then incr violations;
             Printf.printf "[%8d ns] %s holds the lock (iteration %d)\n"
               (Sim.now sim) name i;
             Sim.yield sim;
             decr in_cs;
             Lock.release lock_port sim id;
             Sim.yield sim
           done;
           Printf.printf "[%8d ns] %s done\n" (Sim.now sim) name))
  in
  worker "alice";
  worker "bob";
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> Format.printf "run ended: %a@." Sim.pp_run_result r);
  Printf.printf
    "\nsummary: %d micro-reboots, %d mutual-exclusion violations, %d invocations\n"
    (Sim.reboots sim) !violations (Sim.invocations sim);
  if !violations = 0 && Sim.reboots sim > 0 then
    print_endline
      "the lock service was repeatedly destroyed and interface-driven\n\
       recovery rebuilt it each time - no thread ever saw a broken lock."
