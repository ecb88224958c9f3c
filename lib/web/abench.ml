module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Sysbuild = Sg_components.Sysbuild

type result = {
  ab_requests : int;
  ab_errors : int;
  ab_faults : int;
  ab_sim_ns : int;
  ab_rps : float;
}

(* clients in flight, fixed as in the paper *)
let concurrency = 10

let run ?fault_period_ns ~requests sys server =
  (match fault_period_ns with
  | Some p when p <= 0 -> invalid_arg "Abench.run: fault_period_ns must be positive"
  | _ -> ());
  let sim = sys.Sysbuild.sys_sim in
  let client = Sim.register sim (Sysbuild.app_spec "abclient" ~image_kb:24) in
  Sim.grant sim ~client ~server:server.Server.ws_http;
  let issued = ref 0 in
  let done_clients = ref 0 in
  let errors = ref 0 in
  let faults = ref 0 in
  let start_ns = ref 0 in
  let finish_ns = ref 0 in
  let req_text = Httpmsg.render_request ~path:"/index.html" in
  for i = 1 to concurrency do
    ignore
      (Sim.spawn sim ~prio:5
         ~name:(Printf.sprintf "ab-%d" i)
         ~home:client
         (fun sim ->
           Server.wait_ready server sim;
           if !start_ns = 0 then start_ns := Sim.now sim;
           let rec loop () =
             if !issued < requests then begin
               incr issued;
               (match
                  Sim.invoke sim ~server:server.Server.ws_http "http_get"
                    [ Comp.VStr req_text ]
                with
               | Ok (Comp.VStr resp) -> (
                   match Httpmsg.parse_response resp with
                   | Ok { Httpmsg.rs_status = 200; _ } -> ()
                   | Ok _ | Error _ -> incr errors)
               | Ok _ | Error _ -> incr errors);
               (* let the logger and the other closed-loop clients in *)
               Sim.yield sim;
               loop ()
             end
           in
           loop ();
           incr done_clients;
           if !done_clients = concurrency then begin
             finish_ns := Sim.now sim;
             Server.stop sys server
           end))
  done;
  (* optional SWIFI thread: crash a rotating system service each period *)
  Option.iter
    (fun period_ns ->
      Server.crash_rotation sys ~name:"web-swifi" ~period_ns
        ~stop:(fun () -> !done_clients >= concurrency)
        ~faults)
    fault_period_ns;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r ->
      failwith
        (Format.asprintf "web benchmark did not complete: %a" Sim.pp_run_result r));
  let window = max 1 (!finish_ns - !start_ns) in
  {
    ab_requests = requests;
    ab_errors = !errors;
    ab_faults = !faults;
    ab_sim_ns = window;
    ab_rps = float_of_int requests /. Sg_kernel.Clock.s_of_ns window;
  }

type bucket = { b_start_s : float; b_rps : float; b_crashes : int }

let timeline sys server =
  let samples = List.rev !(server.Server.ws_timeline) in
  (* coalesce equal-timestamp samples to the last (cumulative) count —
     the old pass silently dropped the whole pair, losing the bucket *)
  let samples =
    List.rev
      (List.fold_left
         (fun acc ((t, _) as s) ->
           match acc with
           | (t', _) :: rest when t' = t -> s :: rest
           | _ -> s :: acc)
         [] samples)
  in
  (* every crash of the run, in time order: both retention policies keep
     them all *)
  let crashes =
    List.filter_map
      (fun (e : Sg_obs.Event.t) ->
        match e.kind with Sg_obs.Event.Crash _ -> Some e.at_ns | _ -> None)
      (Sg_obs.Sink.events (Sim.obs sys.Sysbuild.sys_sim))
    |> Array.of_list
  in
  (* samples and crashes are both time-sorted: one advancing cursor
     attributes each crash to its bucket, O(samples + crashes) instead
     of rescanning the crash list per bucket *)
  let ci = ref 0 in
  let nc = Array.length crashes in
  let rec buckets acc = function
    | (t0, n0) :: ((t1, n1) :: _ as rest) ->
        let rps =
          float_of_int (n1 - n0) /. Sg_kernel.Clock.s_of_ns (t1 - t0)
        in
        while !ci < nc && crashes.(!ci) < t0 do
          incr ci
        done;
        let first = !ci in
        while !ci < nc && crashes.(!ci) < t1 do
          incr ci
        done;
        let crashed = !ci - first in
        buckets
          ({ b_start_s = Sg_kernel.Clock.s_of_ns t0; b_rps = rps; b_crashes = crashed }
          :: acc)
          rest
    | _ :: rest -> buckets acc rest
    | [] -> List.rev acc
  in
  buckets [] samples

let render_timeline buckets =
  let max_rps =
    List.fold_left (fun acc b -> Float.max acc b.b_rps) 1.0 buckets
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "  t(s)    req/s  (x = service crash)\n";
  List.iter
    (fun b ->
      let width = int_of_float (40.0 *. b.b_rps /. max_rps) in
      Buffer.add_string buf
        (Printf.sprintf "%6.2f %8.0f  %s%s\n" b.b_start_s b.b_rps
           (String.make (max 0 width) '#')
           (if b.b_crashes > 0 then " " ^ String.make b.b_crashes 'x' else "")))
    buckets;
  Buffer.contents buf

(* The Apache/Linux reference: a monolithic request loop with no
   component crossings, modeled at the paper's measured throughput. *)
let apache_reference ~requests =
  let per_request_ns = 56_800 in
  let sim_ns = requests * per_request_ns in
  {
    ab_requests = requests;
    ab_errors = 0;
    ab_faults = 0;
    ab_sim_ns = sim_ns;
    ab_rps = float_of_int requests /. Sg_kernel.Clock.s_of_ns sim_ns;
  }
