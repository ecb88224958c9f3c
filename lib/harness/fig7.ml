module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Server = Sg_web.Server
module Abench = Sg_web.Abench
module Stats = Sg_util.Stats
module Table = Sg_util.Table

type row = {
  w_config : string;
  w_rps : Stats.summary;
  w_slowdown_pct : float;
  w_faults : int;
  w_reboots : int;
  w_errors : int;
  w_phases : Sg_obs.Profile.phases option;
}

let one_run ~mode ~requests ~seed ~fault_period_ns =
  let sys = Sysbuild.build ~seed mode in
  let sim = sys.Sysbuild.sys_sim in
  (* stitch recovery episodes alongside the run: the subscriber only
     observes the stream, so throughput numbers are untouched *)
  let epb = Sg_obs.Episode.builder () in
  Sg_obs.Episode.attach epb (Sim.obs sim);
  let server = Server.install sys in
  let r = Abench.run ?fault_period_ns ~requests sys server in
  (r, Sg_obs.Metrics.reboots (Sim.metrics sim), Sg_obs.Episode.finish epb)

let config ~name ~mode ~requests ~reps ~fault_period_ns =
  let runs =
    List.init reps (fun i -> one_run ~mode ~requests ~seed:(211 + i) ~fault_period_ns)
  in
  let rps = Stats.summarize (List.map (fun (r, _, _) -> r.Abench.ab_rps) runs) in
  {
    w_config = name;
    w_rps = rps;
    w_slowdown_pct = 0.0;
    w_faults =
      List.fold_left (fun a (r, _, _) -> a + r.Abench.ab_faults) 0 runs / reps;
    w_reboots = List.fold_left (fun a (_, n, _) -> a + n) 0 runs / reps;
    w_errors = List.fold_left (fun a (r, _, _) -> a + r.Abench.ab_errors) 0 runs;
    w_phases =
      Sg_obs.Profile.mean_phases_ns
        (List.concat_map (fun (_, _, eps) -> eps) runs);
  }

(* one crash per 250 virtual ms in the with-faults configurations *)
let fault_period_ns = 250_000_000

let run ?(requests = 50_000) ?(reps = 3) () =
  let apache =
    let r = Abench.apache_reference ~requests in
    {
      w_config = "apache (reference model)";
      w_rps = Stats.summarize [ r.Abench.ab_rps ];
      w_slowdown_pct = 0.0;
      w_faults = 0;
      w_reboots = 0;
      w_errors = 0;
      w_phases = None;
    }
  in
  let c3 = Sysbuild.Stubbed Sysbuild.c3_stubset in
  let sg = Superglue.Stubset.mode in
  let rows =
    [
      apache;
      config ~name:"composite (base)" ~mode:Sysbuild.Base ~requests ~reps
        ~fault_period_ns:None;
      config ~name:"composite + c3" ~mode:c3 ~requests ~reps ~fault_period_ns:None;
      config ~name:"composite + superglue" ~mode:sg ~requests ~reps
        ~fault_period_ns:None;
      config ~name:"composite + c3, faults" ~mode:c3 ~requests ~reps
        ~fault_period_ns:(Some fault_period_ns);
      config ~name:"composite + superglue, faults" ~mode:sg ~requests ~reps
        ~fault_period_ns:(Some fault_period_ns);
    ]
  in
  let base_rps =
    (List.find (fun r -> r.w_config = "composite (base)") rows).w_rps.Stats.mean
  in
  List.map
    (fun r ->
      {
        r with
        w_slowdown_pct =
          Stats.ratio_percent ~baseline:base_rps ~measured:r.w_rps.Stats.mean;
      })
    rows

let print ?requests () =
  let rows = run ?requests () in
  print_endline
    "Fig 7 - web server throughput (requests per second)\n\
     (paper: apache 17600, base 16200, c3 14500 (-10.5%), superglue 14281\n\
     (-11.84%); with one crash per 10s the superglue slowdown was 13.6%)";
  Table.print
    ~header:
      [
        "Configuration"; "req/s"; "sd"; "vs base"; "faults"; "reboots";
        "errors"; "detect>reboot"; "reboot>walks"; "walks>access";
      ]
    (List.map
       (fun r ->
         let ph f =
           match r.w_phases with
           | None -> "-"
           | Some p -> Printf.sprintf "%d ns" (f p)
         in
         [
           r.w_config;
           Printf.sprintf "%.0f" r.w_rps.Stats.mean;
           Printf.sprintf "%.0f" r.w_rps.Stats.stdev;
           Printf.sprintf "%+.2f%%" (-.r.w_slowdown_pct);
           string_of_int r.w_faults;
           string_of_int r.w_reboots;
           string_of_int r.w_errors;
           ph (fun p -> p.Sg_obs.Profile.ph_detect_reboot_ns);
           ph (fun p -> p.Sg_obs.Profile.ph_reboot_walks_ns);
           ph (fun p -> p.Sg_obs.Profile.ph_walks_access_ns);
         ])
       rows)
