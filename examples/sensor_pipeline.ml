(* An embedded-systems scenario (the paper's motivating domain): a
   periodic sensor pipeline on top of the recoverable system services.

   - a sampler thread wakes on the timer manager every millisecond and
     appends a reading to a ring file in the RAM file system, under the
     calibration lock;
   - a filter thread in a different component blocks on a (global) event
     the sampler triggers, reads the latest window back and keeps a
     running average;
   - meanwhile transient faults repeatedly destroy the timer, the lock,
     the event manager and the file system underneath the pipeline.

   The pipeline's output must be exactly the fault-free one: every
   sample preserved, every notification delivered.

     dune exec examples/sensor_pipeline.exe
*)

module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Timer = Sg_components.Timer
module Lock = Sg_components.Lock
module Event = Sg_components.Event
module Ramfs = Sg_components.Ramfs
module Rng = Sg_util.Rng

let samples = 40

let run ~faults =
  let sys = Sysbuild.build Superglue.Stubset.mode in
  let sim = sys.Sysbuild.sys_sim in
  let app1 = sys.Sysbuild.sys_app1 and app2 = sys.Sysbuild.sys_app2 in
  let timer = sys.Sysbuild.sys_port ~client:app1 ~iface:"timer" in
  let lock = sys.Sysbuild.sys_port ~client:app1 ~iface:"lock" in
  let fs1 = sys.Sysbuild.sys_port ~client:app1 ~iface:"fs" in
  let evt1 = sys.Sysbuild.sys_port ~client:app1 ~iface:"evt" in
  let fs2 = sys.Sysbuild.sys_port ~client:app2 ~iface:"fs" in
  let evt2 = sys.Sysbuild.sys_port ~client:app2 ~iface:"evt" in
  let rng = Rng.create 2026 in
  let evt_id = ref None in
  let lock_id = ref None in
  let produced = ref [] in
  let consumed = ref [] in
  (* the sampler: timer-paced producer in component app1 *)
  let _ =
    Sim.spawn sim ~prio:5 ~name:"sampler" ~home:app1 (fun sim ->
        evt_id := Some (Event.split evt1 sim ~compid:app1 ~parent:0 ~grp:1);
        lock_id := Some (Lock.alloc lock sim);
        let t = Timer.create timer sim ~period_ns:1_000_000 in
        for i = 1 to samples do
          ignore (Timer.wait timer sim t);
          let reading = 500 + Rng.int rng 100 in
          produced := reading :: !produced;
          let line = Printf.sprintf "%04d:%04d\n" i reading in
          let l = Option.get !lock_id in
          Lock.take lock sim l;
          let fd = Ramfs.tsplit fs1 sim ~parent:Ramfs.root_fd ~name:"ring.dat" in
          ignore (Ramfs.tlseek fs1 sim ~fd ~off:((i - 1) * String.length line));
          ignore (Ramfs.twrite fs1 sim ~fd ~data:line);
          Ramfs.trelease fs1 sim ~fd;
          Lock.release lock sim l;
          Event.trigger evt1 sim ~compid:app1 (Option.get !evt_id)
        done;
        Timer.free timer sim t)
  in
  (* the filter: event-driven consumer in component app2 *)
  let _ =
    Sim.spawn sim ~prio:5 ~name:"filter" ~home:app2 (fun sim ->
        let rec wait_evt () =
          match !evt_id with
          | Some id -> id
          | None ->
              Sim.yield sim;
              wait_evt ()
        in
        let id = wait_evt () in
        for i = 1 to samples do
          Event.wait evt2 sim ~compid:app2 id;
          let fd = Ramfs.tsplit fs2 sim ~parent:Ramfs.root_fd ~name:"ring.dat" in
          ignore (Ramfs.tlseek fs2 sim ~fd ~off:((i - 1) * 10));
          let line = Ramfs.tread fs2 sim ~fd ~len:10 in
          Ramfs.trelease fs2 sim ~fd;
          (match String.index_opt line ':' with
          | Some j ->
              let v =
                String.sub line (j + 1) (String.length line - j - 2)
                |> String.trim |> int_of_string_opt
                |> Option.value ~default:(-1)
              in
              consumed := v :: !consumed
          | None -> consumed := -1 :: !consumed)
        done)
  in
  (* the fault storm over the four services the pipeline stands on *)
  if faults then begin
    let targets =
      [|
        sys.Sysbuild.sys_services.timer; sys.Sysbuild.sys_services.lock; sys.Sysbuild.sys_services.evt;
        sys.Sysbuild.sys_services.fs;
      |]
    in
    ignore
      (Sim.spawn sim ~prio:4 ~name:"swifi" ~home:app1 (fun sim ->
           let i = ref 0 in
           while List.length !consumed < samples do
             Sim.sleep_until sim (Sim.now sim + 2_500_000);
             if List.length !consumed < samples then begin
               Sim.mark_failed sim targets.(!i mod 4) ~detector:"sensor-demo";
               incr i
             end
           done))
  end;
  match Sim.run sim with
  | Sim.Completed -> (List.rev !produced, List.rev !consumed, Sim.reboots sim)
  | r -> failwith (Format.asprintf "pipeline failed: %a" Sim.pp_run_result r)

let () =
  let p0, c0, _ = run ~faults:false in
  let p1, c1, reboots = run ~faults:true in
  Printf.printf "fault-free run : %d samples produced, %d consumed\n"
    (List.length p0) (List.length c0);
  Printf.printf "under faults   : %d samples produced, %d consumed, %d micro-reboots\n"
    (List.length p1) (List.length c1) reboots;
  if p0 = c0 && p1 = c1 && p0 = p1 then
    print_endline
      "every reading survived: the pipeline's output under the fault storm\n\
       is byte-identical to the fault-free run."
  else begin
    print_endline "MISMATCH:";
    let show l = String.concat "," (List.map string_of_int l) in
    Printf.printf "  produced (faults): %s\n  consumed (faults): %s\n" (show p1) (show c1);
    exit 1
  end
