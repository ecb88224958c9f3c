module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Ramfs = Sg_components.Ramfs
module Clock = Sg_kernel.Clock
module Table = Sg_util.Table

type row = {
  a_descriptors : int;
  a_mode : string;
  a_first_access_us : float;
  a_walks_at_access : int;
  a_phases : Sg_obs.Profile.phases option;
}

let measure ~mode_name ~mode ~descriptors =
  let sys = Sysbuild.build mode in
  let sim = sys.Sysbuild.sys_sim in
  let epb = Sg_obs.Episode.builder () in
  Sg_obs.Episode.attach epb (Sim.obs sim);
  let app = sys.Sysbuild.sys_app1 in
  let port = sys.Sysbuild.sys_port ~client:app ~iface:"fs" in
  let latency = ref 0.0 in
  let walks = ref 0 in
  let _ =
    Sim.spawn sim ~name:"ablation" ~home:app (fun sim ->
        (* the background population: many live descriptors *)
        for i = 1 to descriptors do
          let fd =
            Ramfs.tsplit port sim ~parent:Ramfs.root_fd
              ~name:(Printf.sprintf "bg-%d.dat" i)
          in
          ignore (Ramfs.twrite port sim ~fd ~data:"x")
        done;
        (* the latency-sensitive descriptor *)
        let own = Ramfs.tsplit port sim ~parent:Ramfs.root_fd ~name:"hot.dat" in
        ignore (Ramfs.twrite port sim ~fd:own ~data:"hot");
        let m = Sim.metrics sim in
        let walks_before = Sg_obs.Metrics.walks ~client:app m in
        (* the transient fault *)
        Sim.mark_failed sim sys.Sysbuild.sys_services.fs ~detector:"ablation";
        (* first post-fault access: how long until this thread has its
           descriptor back? *)
        let t0 = Sim.now sim in
        ignore (Ramfs.tlseek port sim ~fd:own ~off:0);
        let got = Ramfs.tread port sim ~fd:own ~len:3 in
        latency := Clock.us_of_ns (Sim.now sim - t0);
        walks := Sg_obs.Metrics.walks ~client:app m - walks_before;
        if got <> "hot" then failwith "ablation: wrong contents after recovery")
  in
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> failwith (Format.asprintf "ablation: %a" Sim.pp_run_result r));
  {
    a_descriptors = descriptors + 1;
    a_mode = mode_name;
    a_first_access_us = !latency;
    a_walks_at_access = !walks;
    a_phases = Sg_obs.Profile.mean_phases_ns (Sg_obs.Episode.finish epb);
  }

let run ?(descriptors = 40) () =
  [
    measure ~mode_name:"on-demand (T1)" ~mode:Superglue.Stubset.mode ~descriptors;
    measure ~mode_name:"eager" ~mode:Superglue.Stubset.mode_eager ~descriptors;
  ]

let print () =
  let rows = run () in
  print_endline
    "Ablation - recovery timing (paper SectionIII-C): latency of the first\n\
     post-fault access while the client tracks many descriptors";
  Table.print
    ~header:
      [
        "Recovery mode"; "descriptors"; "first access us";
        "walks charged to it"; "detect>reboot"; "reboot>walks";
        "walks>access";
      ]
    (List.map
       (fun r ->
         let ph f =
           match r.a_phases with
           | None -> "-"
           | Some p -> Printf.sprintf "%d ns" (f p)
         in
         [
           r.a_mode;
           string_of_int r.a_descriptors;
           Printf.sprintf "%.2f" r.a_first_access_us;
           string_of_int r.a_walks_at_access;
           ph (fun p -> p.Sg_obs.Profile.ph_detect_reboot_ns);
           ph (fun p -> p.Sg_obs.Profile.ph_reboot_walks_ns);
           ph (fun p -> p.Sg_obs.Profile.ph_walks_access_ns);
         ])
       rows);
  print_endline
    "(on-demand recovery confines the first accessor to its own walk;\n\
     eager recovery makes it absorb the whole interface's recovery as\n\
     interference - the priority-inversion cost C3's analysis bounds)"
