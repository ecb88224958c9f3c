(* Flagship property tests: model-based random workloads executed under
   random crash storms must be observationally equivalent to fault-free
   executions. Each property keeps a trusted shadow model in the test
   and compares every observable result against it while the service
   underneath is being repeatedly destroyed and recovered. *)

module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Ramfs = Sg_components.Ramfs
module Mm = Sg_components.Mm
module Lock = Sg_components.Lock
module Frames = Sg_kernel.Frames
module Kernel = Sg_kernel.Kernel
module Rng = Sg_util.Rng

(* Every model run also records its full event stream and validates it
   against the trace invariants: crash storms exercise exactly the
   orderings Obs.Check guards (crash->reboot alternation, divert
   unwinding, walk discipline), so a checker violation here is a
   recovery bug even when the shadow model happens to agree. *)
let arm_obs sys =
  Sg_obs.Sink.set_retention (Sim.obs sys.Sysbuild.sys_sim) Sg_obs.Sink.All

let check_obs ?mode sys =
  let events = Sg_obs.Sink.events (Sim.obs sys.Sysbuild.sys_sim) in
  List.map
    (fun v -> Format.asprintf "%a" Sg_obs.Check.pp_violation v)
    (Sg_obs.Check.run ?mode ~completed:true events)

let install_crasher sys targets ~period ~offset =
  let count = ref 0 in
  Sim.set_on_dispatch sys.Sysbuild.sys_sim
    (Some
       (fun sim cid _fn ->
         if List.mem cid targets then begin
           incr count;
           if (!count + offset) mod period = 0 then begin
             Sim.mark_failed sim cid ~detector:"storm";
             raise (Comp.Crash { cid; detector = "storm" })
           end
         end))

(* ---------- RamFS vs a shadow file model ---------- *)

let fs_model_run ~mode ~seed ~crash_period =
  let sys = Sysbuild.build ~seed mode in
  arm_obs sys;
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"fs" in
  let rng = Rng.create (seed * 31) in
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  (* the trusted shadow: file path -> contents; fd -> (path, offset) *)
  let shadow_files : (string, Buffer.t) Hashtbl.t = Hashtbl.create 4 in
  let shadow_of path =
    match Hashtbl.find_opt shadow_files path with
    | Some b -> b
    | None ->
        let b = Buffer.create 32 in
        Hashtbl.replace shadow_files path b;
        b
  in
  let write_shadow b off s =
    let cur = Buffer.contents b in
    let len = max (String.length cur) (off + String.length s) in
    let bytes = Bytes.make len '\000' in
    Bytes.blit_string cur 0 bytes 0 (String.length cur);
    Bytes.blit_string s 0 bytes off (String.length s);
    Buffer.clear b;
    Buffer.add_bytes b bytes
  in
  let _ =
    Sim.spawn sim ~name:"fs-model" ~home:app (fun sim ->
        let paths = [| "alpha"; "beta"; "gamma" |] in
        let open_fds = ref [] in
        for _ = 1 to 120 do
          match Rng.int rng 5 with
          | 0 ->
              let name = Rng.choose rng paths in
              let fd = Ramfs.tsplit port sim ~parent:Ramfs.root_fd ~name in
              open_fds := (fd, "/" ^ name, ref 0) :: !open_fds
          | 1 -> (
              match !open_fds with
              | [] -> ()
              | fds ->
                  let fd, path, off = Rng.choose rng (Array.of_list fds) in
                  let data =
                    String.init (1 + Rng.int rng 8) (fun _ ->
                        Char.chr (Char.code 'a' + Rng.int rng 26))
                  in
                  let n = Ramfs.twrite port sim ~fd ~data in
                  if n <> String.length data then bad "short write on %s" path;
                  write_shadow (shadow_of path) !off data;
                  off := !off + n)
          | 2 -> (
              match !open_fds with
              | [] -> ()
              | fds ->
                  let fd, path, off = Rng.choose rng (Array.of_list fds) in
                  let len = 1 + Rng.int rng 8 in
                  let got = Ramfs.tread port sim ~fd ~len in
                  let shadow = Buffer.contents (shadow_of path) in
                  let avail = max 0 (String.length shadow - !off) in
                  let expect =
                    if avail = 0 then ""
                    else String.sub shadow !off (min len avail)
                  in
                  if got <> expect then
                    bad "read %S at %d of %s, expected %S" got !off path expect;
                  off := !off + String.length got)
          | 3 -> (
              match !open_fds with
              | [] -> ()
              | fds ->
                  let fd, path, off = Rng.choose rng (Array.of_list fds) in
                  let shadow_len = Buffer.length (shadow_of path) in
                  let target = if shadow_len = 0 then 0 else Rng.int rng shadow_len in
                  let got = Ramfs.tlseek port sim ~fd ~off:target in
                  if got <> target then bad "lseek returned %d" got;
                  off := target)
          | _ -> (
              match !open_fds with
              | [] -> ()
              | (fd, _, _) :: rest ->
                  Ramfs.trelease port sim ~fd;
                  open_fds := rest)
        done;
        List.iter (fun (fd, _, _) -> Ramfs.trelease port sim ~fd) !open_fds)
  in
  (match crash_period with
  | Some period -> install_crasher sys [ sys.Sysbuild.sys_services.fs ] ~period ~offset:0
  | None -> ());
  match Sim.run sim with
  | Sim.Completed -> check_obs sys @ !violations
  | r -> [ Format.asprintf "run: %a" Sim.pp_run_result r ]

let prop_fs_model mode_name mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "[%s] random fs workload under crash storm matches the shadow model"
         mode_name)
    ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 5 40))
    (fun (seed, period) ->
      fs_model_run ~mode ~seed ~crash_period:(Some period) = [])

(* ---------- memory manager vs a shadow mapping model ---------- *)

let mm_model_run ~mode ~seed ~crash_period =
  let sys = Sysbuild.build ~seed mode in
  arm_obs sys;
  let sim = sys.Sysbuild.sys_sim in
  let app1 = sys.Sysbuild.sys_app1 and app2 = sys.Sysbuild.sys_app2 in
  let port = sys.Sysbuild.sys_port ~client:app1 ~iface:"mm" in
  let rng = Rng.create (seed * 17) in
  let violations = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  let _ =
    Sim.spawn sim ~name:"mm-model" ~home:app1 (fun sim ->
        (* shadow: root vaddr -> number of aliases *)
        let roots : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
        let next_v = ref 0x1000 in
        let fresh () =
          next_v := !next_v + 0x1000;
          !next_v
        in
        for _ = 1 to 90 do
          match Rng.int rng 3 with
          | 0 ->
              let v = fresh () in
              Mm.get_page port sim ~vaddr:v;
              Hashtbl.replace roots v (ref 0)
          | 1 -> (
              match
                Hashtbl.fold
                  (fun v n acc -> if !n < 3 then (v, n) :: acc else acc)
                  roots []
              with
              | [] -> ()
              | candidates ->
                  let v, n = Rng.choose rng (Array.of_list candidates) in
                  Mm.alias_page port sim ~svaddr:v ~dst:app2 ~dvaddr:(fresh ());
                  incr n)
          | _ -> (
              match Hashtbl.fold (fun v n acc -> (v, n) :: acc) roots [] with
              | [] -> ()
              | candidates ->
                  let v, n = Rng.choose rng (Array.of_list candidates) in
                  let revoked = Mm.release_page port sim ~vaddr:v in
                  if revoked <> 1 + !n then
                    bad "release of %#x revoked %d, expected %d" v revoked (1 + !n);
                  Hashtbl.remove roots v)
        done;
        Hashtbl.iter
          (fun v _ -> ignore (Mm.release_page port sim ~vaddr:v))
          (Hashtbl.copy roots))
  in
  (match crash_period with
  | Some period -> install_crasher sys [ sys.Sysbuild.sys_services.mm ] ~period ~offset:0
  | None -> ());
  match Sim.run sim with
  | Sim.Completed ->
      let kernel = Sim.kernel sim in
      let residual = Frames.mapping_count kernel.Kernel.frames in
      let violations =
        if residual <> 0 then
          (Printf.sprintf "%d residual kernel mappings" residual) :: !violations
        else !violations
      in
      check_obs sys @ violations
  | r -> [ Format.asprintf "run: %a" Sim.pp_run_result r ]

let prop_mm_model mode_name mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "[%s] random mm workload under crash storm keeps kernel mappings exact"
         mode_name)
    ~count:12
    (* the fault model guarantees faults are rare relative to recovery
       (paper §V-A: at most one fault per ~509 s); a crash period shorter
       than a mapping subtree makes its atomic re-adoption impossible, so
       the adversary stays above that bound *)
    QCheck.(pair (int_range 1 1000) (int_range 12 40))
    (fun (seed, period) ->
      mm_model_run ~mode ~seed ~crash_period:(Some period) = [])

(* ---------- lock storm: mutual exclusion under recovery ---------- *)

let lock_storm_run ~mode ~seed ~crash_period =
  let sys = Sysbuild.build ~seed mode in
  arm_obs sys;
  let sim = sys.Sysbuild.sys_sim in
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"lock" in
  let violations = ref [] in
  let completed = ref 0 in
  let lock_a = ref None and lock_b = ref None in
  let in_a = ref 0 and in_b = ref 0 in
  let nthreads = 3 in
  for i = 1 to nthreads do
    ignore
      (Sim.spawn sim ~prio:5
         ~name:(Printf.sprintf "storm-%d" i)
         ~home:app
         (fun sim ->
           let get cell =
             match !cell with
             | Some id -> id
             | None ->
                 let id = Lock.alloc port sim in
                 cell := Some id;
                 id
           in
           let rng = Rng.create ((seed * 7) + i) in
           for _ = 1 to 15 do
             let a = get lock_a in
             Lock.take port sim a;
             incr in_a;
             if !in_a <> 1 then violations := "two holders of A" :: !violations;
             (* sometimes nest the second lock, always in A-B order *)
             if Rng.bool rng then begin
               let b = get lock_b in
               Lock.take port sim b;
               incr in_b;
               if !in_b <> 1 then violations := "two holders of B" :: !violations;
               Sim.yield sim;
               decr in_b;
               Lock.release port sim b
             end;
             Sim.yield sim;
             decr in_a;
             Lock.release port sim a;
             Sim.yield sim
           done;
           incr completed))
  done;
  (match crash_period with
  | Some period ->
      install_crasher sys [ sys.Sysbuild.sys_services.lock ] ~period ~offset:seed
  | None -> ());
  match Sim.run sim with
  | Sim.Completed ->
      let violations =
        if !completed <> nthreads then
          (Printf.sprintf "%d/%d threads completed" !completed nthreads)
          :: !violations
        else !violations
      in
      check_obs sys @ violations
  | r -> [ Format.asprintf "run: %a" Sim.pp_run_result r ]

let prop_lock_storm mode_name mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "[%s] mutual exclusion survives lock-service crash storms"
         mode_name)
    ~count:12
    QCheck.(pair (int_range 1 1000) (int_range 6 40))
    (fun (seed, period) ->
      lock_storm_run ~mode ~seed ~crash_period:(Some period) = [])

(* ---------- the six paper workloads under random storms ---------- *)

let prop_workloads_equivalent mode_name mode =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "[%s] every paper workload completes identically under crash storms"
         mode_name)
    ~count:18
    QCheck.(triple (int_range 0 5) (int_range 1 500) (int_range 6 50))
    (fun (which, seed, period) ->
      (* qcheck shrinking can step outside the generator's range *)
      let period = max 2 period and seed = max 1 seed in
      let which = max 0 (min 5 which) in
      let iface = List.nth Workloads.all_ifaces which in
      let sys = Sysbuild.build ~seed mode in
      let check = Workloads.setup sys ~iface ~iters:12 in
      install_crasher sys
        [ Sysbuild.cid_of_iface sys iface ]
        ~period ~offset:(seed mod period);
      Sim.run sys.Sysbuild.sys_sim = Sim.Completed && check () = [])

(* debug helpers: run cases verbosely when DBG_FS / DBG_MM is set *)
let () =
  if Sys.getenv_opt "DBG_FS" <> None then begin
    for seed = 1 to 6 do
      let v =
        fs_model_run ~mode:Superglue.Stubset.mode ~seed
          ~crash_period:(Some (4 + seed))
      in
      Printf.printf "fs seed=%d period=%d: %s\n" seed (4 + seed)
        (String.concat " | " v)
    done;
    exit 0
  end;
  if Sys.getenv_opt "DBG_MM" <> None then begin
    for seed = 1 to 6 do
      let v =
        mm_model_run ~mode:Superglue.Stubset.mode ~seed
          ~crash_period:(Some (4 + seed))
      in
      Printf.printf "mm seed=%d period=%d: %s\n" seed (4 + seed)
        (String.concat " | " v)
    done;
    exit 0
  end

(* Regressions: deterministic reproducers of recovery bugs these
   property suites found during development. *)

let test_regression_woken_not_rescheduled () =
  (* a thread woken by a release but not yet scheduled when the crash
     hit was not diverted, resumed inside the dead incarnation's stale
     closure and stranded itself (fixed: the booter diverts every
     suspended thread with the component on its stack) *)
  List.iter
    (fun seed ->
      Alcotest.(check (list string))
        (Printf.sprintf "lock storm seed=%d period=7" seed)
        []
        (lock_storm_run
           ~mode:(Sysbuild.Stubbed Sysbuild.c3_stubset)
           ~seed ~crash_period:(Some 7)))
    [ 16; 19; 21; 22; 27; 37 ]

let test_regression_latch_loss () =
  (* a scheduler crash between a latched wakeup and its consuming block
     deadlocked the ping-pong until walks re-latched wakeup states *)
  List.iter
    (fun (seed, period) ->
      let sys = Sysbuild.build ~seed Superglue.Stubset.mode in
      let check = Workloads.setup sys ~iface:"sched" ~iters:12 in
      install_crasher sys [ sys.Sysbuild.sys_services.sched ] ~period ~offset:0;
      Alcotest.(check bool)
        (Printf.sprintf "sched storm seed=%d period=%d" seed period)
        true
        (Sim.run sys.Sysbuild.sys_sim = Sim.Completed && check () = []))
    [ (18, 5); (52, 6); (56, 7); (3, 9) ]

let test_regression_g0_replay_registration () =
  (* a creation replayed through the server stub's G0 path bypassed the
     storage registration, leaving the new id unrecoverable after the
     next fault (fixed: the replay re-enters the wrapped dispatch) *)
  let sys = Sysbuild.build ~seed:158 (Sysbuild.Stubbed Sysbuild.c3_stubset) in
  let check = Workloads.setup sys ~iface:"evt" ~iters:12 in
  install_crasher sys [ sys.Sysbuild.sys_services.evt ] ~period:8 ~offset:(158 mod 8);
  Alcotest.(check bool) "evt storm seed=158 period=8" true
    (Sim.run sys.Sysbuild.sys_sim = Sim.Completed && check () = [])

(* ---------- observability: mode-aware checking + determinism ---------- *)

(* crash-storm a paper workload and validate its stream under the
   recovery-mode-specific rules: the T1 stubsets must never walk before
   first access, the T0 stubset's eager walks must stay inside their
   recover-all episodes *)
let test_check_recovery_modes () =
  List.iter
    (fun (name, mode, chk_mode) ->
      let sys = Sysbuild.build ~seed:11 mode in
      arm_obs sys;
      let check = Workloads.setup sys ~iface:"fs" ~iters:12 in
      install_crasher sys [ sys.Sysbuild.sys_services.fs ] ~period:9 ~offset:0;
      Alcotest.(check bool) (name ^ " storm completes") true
        (Sim.run sys.Sysbuild.sys_sim = Sim.Completed && check () = []);
      Alcotest.(check (list string))
        (name ^ " stream satisfies its mode's invariants")
        [] (check_obs ~mode:chk_mode sys))
    [
      ("superglue", Superglue.Stubset.mode, `Ondemand);
      ("superglue-eager", Superglue.Stubset.mode_eager, `Eager);
      ("c3", Sysbuild.Stubbed Sysbuild.c3_stubset, `Ondemand);
    ]

let campaign_events ~seed =
  let buf = Buffer.create 4096 in
  let row =
    Sg_swifi.Campaign.run ~seed ~mode:Superglue.Stubset.mode ~iface:"fs"
      ~injections:25
      ~on_event:(fun e ->
        Buffer.add_string buf (Sg_obs.Jsonl.to_string e);
        Buffer.add_char buf '\n')
      ()
  in
  (row, Buffer.contents buf)

(* the simulator is seeded and virtual-timed, so a campaign is a pure
   function of its seed: same seed, same row, byte-identical stream *)
let test_campaign_determinism () =
  let row1, ev1 = campaign_events ~seed:3 in
  let row2, ev2 = campaign_events ~seed:3 in
  Alcotest.(check bool) "stream is non-trivial" true (String.length ev1 > 0);
  Alcotest.(check bool) "same seed gives the same campaign row" true
    (row1 = row2);
  Alcotest.(check bool) "and a byte-identical event stream" true
    (String.equal ev1 ev2)

(* the rendered stream of the seed-3 campaign, pinned byte for byte:
   a codec change must not move a single byte of the trace format *)
let test_campaign_stream_pinned () =
  let _, ev = campaign_events ~seed:3 in
  Alcotest.(check int) "stream length" 451_346 (String.length ev);
  Alcotest.(check string) "stream digest" "13455b70273404a0c716d696f940840b"
    (Digest.to_hex (Digest.string ev))

(* fault-free sanity for the shadow models themselves *)
let test_models_faultfree () =
  Alcotest.(check (list string)) "fs model" []
    (fs_model_run ~mode:Superglue.Stubset.mode ~seed:5 ~crash_period:None);
  Alcotest.(check (list string)) "mm model" []
    (mm_model_run ~mode:Superglue.Stubset.mode ~seed:5 ~crash_period:None);
  Alcotest.(check (list string)) "lock storm" []
    (lock_storm_run ~mode:Superglue.Stubset.mode ~seed:5 ~crash_period:None)

let () =
  let c3 = Sysbuild.Stubbed Sysbuild.c3_stubset in
  let sg = Superglue.Stubset.mode in
  let gen = Sg_genstubs.Gen_stubset.mode in
  Alcotest.run "properties"
    [
      ("sanity", [ Alcotest.test_case "models fault-free" `Quick test_models_faultfree ]);
      ( "observability",
        [
          Alcotest.test_case "storms satisfy the mode invariants" `Quick
            test_check_recovery_modes;
          Alcotest.test_case "campaigns are seed-deterministic" `Quick
            test_campaign_determinism;
          Alcotest.test_case "campaign stream bytes are pinned" `Quick
            test_campaign_stream_pinned;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "woken-but-unscheduled threads divert" `Quick
            test_regression_woken_not_rescheduled;
          Alcotest.test_case "wakeup latches survive recovery" `Quick
            test_regression_latch_loss;
          Alcotest.test_case "G0 replays register creations" `Quick
            test_regression_g0_replay_registration;
        ] );
      ( "fs-shadow-model",
        [
          QCheck_alcotest.to_alcotest (prop_fs_model "c3" c3);
          QCheck_alcotest.to_alcotest (prop_fs_model "superglue" sg);
          QCheck_alcotest.to_alcotest (prop_fs_model "superglue-gen" gen);
        ] );
      ( "mm-shadow-model",
        [
          QCheck_alcotest.to_alcotest (prop_mm_model "c3" c3);
          QCheck_alcotest.to_alcotest (prop_mm_model "superglue" sg);
        ] );
      ( "lock-storm",
        [
          QCheck_alcotest.to_alcotest (prop_lock_storm "c3" c3);
          QCheck_alcotest.to_alcotest (prop_lock_storm "superglue" sg);
        ] );
      ( "paper-workloads",
        [
          QCheck_alcotest.to_alcotest (prop_workloads_equivalent "c3" c3);
          QCheck_alcotest.to_alcotest (prop_workloads_equivalent "superglue" sg);
          QCheck_alcotest.to_alcotest (prop_workloads_equivalent "superglue-gen" gen);
        ] );
    ]
