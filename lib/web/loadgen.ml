(* Open-loop load generation: arrivals come from a clock, not from
   completions.

   The closed-loop [Abench] harness (10 clients, issue-on-return) hides
   overload: when the server stalls in recovery, closed-loop clients
   politely stop offering load, so tail latency under faults looks like
   a mild throughput dip. The open-loop generator schedules arrivals
   from a Poisson or bursty (two-state MMPP) process on virtual time —
   requests keep arriving while the server reboots, queue behind the
   stall, and either wait (latency tail) or bounce off the bounded
   accept queue (503 drops). Every request leaves an {!Sg_obs.Event}
   [Http_req] span (arrival / service start / finish, status, outcome),
   which {!Sg_obs.Reqjoin} later joins against recovery episodes.

   Determinism: one master seed is split with [Rng.streams] into
   arrival / client-identity / connection streams (the same discipline
   as the DST scenario generator), and the simulator itself is seeded
   from the same integer, so a (seed, config) pair names one exact
   execution — which is what lets the fault-period sweep fan out over
   [Sg_util.Pool] and still produce byte-identical reports at any
   [-j]. *)

module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Sysbuild = Sg_components.Sysbuild
module Rng = Sg_util.Rng
module Reqjoin = Sg_obs.Reqjoin

type arrival =
  | Poisson of { rate_rps : float }
  | Bursty of {
      base_rps : float;
      burst_rps : float;
      quiet_ms : float;
      burst_ms : float;
    }

type config = {
  lg_arrival : arrival;
  lg_requests : int;
  lg_clients : int;
  lg_workers : int;
  lg_queue_cap : int;
  lg_keepalive : float;
  lg_conn_setup_ns : int;
  lg_seed : int;
}

let default =
  {
    lg_arrival = Poisson { rate_rps = 12_000.0 };
    lg_requests = 20_000;
    lg_clients = 1_000_000;
    lg_workers = 10;
    lg_queue_cap = 200;
    lg_keepalive = 0.9;
    lg_conn_setup_ns = 8_000;
    lg_seed = 42;
  }

(* {2 Validation} *)

let finite_positive x = Float.is_finite x && x > 0.0

let validate cfg =
  let rates_ok, dwells_ok =
    match cfg.lg_arrival with
    | Poisson { rate_rps } -> (finite_positive rate_rps, true)
    | Bursty { base_rps; burst_rps; quiet_ms; burst_ms } ->
        ( finite_positive base_rps && finite_positive burst_rps,
          finite_positive quiet_ms && finite_positive burst_ms )
  in
  match
    List.find_opt
      (fun (ok, _) -> not ok)
      [
        (rates_ok, "rates must be finite and positive");
        (dwells_ok, "dwell times must be finite and positive");
        (cfg.lg_keepalive >= 0.0 && cfg.lg_keepalive <= 1.0, "keepalive must be in [0, 1]");
        (cfg.lg_requests > 0, "requests must be positive");
        (cfg.lg_clients > 0, "clients must be positive");
        (cfg.lg_workers > 0, "workers must be positive");
        (cfg.lg_queue_cap > 0, "queue_cap must be positive");
      ]
  with
  | None -> Ok ()
  | Some (_, msg) -> Error msg

let validate_exn cfg =
  match validate cfg with Ok () -> () | Error msg -> invalid_arg ("Loadgen: " ^ msg)

(* {2 Arrival processes} *)

(* A stepper closes over the arrival stream and returns successive
   inter-arrival gaps in ns (>= 1, so arrivals are strictly ordered).
   The bursty process is a two-state MMPP: dwell times in each state are
   exponential, and the state is re-evaluated lazily at arrival points —
   an approximation that keeps the stepper one-draw-per-arrival (plus
   one per switch) and therefore cheap at millions of requests. *)
let gap_stepper arrival rng =
  match arrival with
  | Poisson { rate_rps } ->
      let mean = 1e9 /. rate_rps in
      fun () -> Rng.gap_ns rng ~mean
  | Bursty { base_rps; burst_rps; quiet_ms; burst_ms } ->
      let t = ref 0 in
      let in_burst = ref false in
      let base_mean = 1e9 /. base_rps and burst_mean = 1e9 /. burst_rps in
      let next_switch = ref (Rng.gap_ns rng ~mean:(quiet_ms *. 1e6)) in
      fun () ->
        if !t >= !next_switch then begin
          in_burst := not !in_burst;
          let dwell_ms = if !in_burst then burst_ms else quiet_ms in
          next_switch := !t + Rng.gap_ns rng ~mean:(dwell_ms *. 1e6)
        end;
        let gap = Rng.gap_ns rng ~mean:(if !in_burst then burst_mean else base_mean) in
        t := !t + gap;
        gap

(* Pure view of the arrival stream for a given master seed: the exact
   gaps [run] will schedule, since both derive stream 0 of the same
   split. Exposed for distribution tests. *)
let interarrivals arrival ~seed ~n =
  validate_exn { default with lg_arrival = arrival };
  let streams = Rng.streams (Rng.create seed) 3 in
  let step = gap_stepper arrival streams.(0) in
  Array.init n (fun _ -> step ())

(* {2 The harness} *)

type result = {
  lr_reqs : Reqjoin.req list;  (** in arrival order *)
  lr_faults : int;
  lr_start_ns : int;
  lr_end_ns : int;
}

let run ?fault_period_ns cfg sys server =
  validate_exn cfg;
  (match fault_period_ns with
  | Some p when p <= 0 -> invalid_arg "Loadgen.run: fault_period_ns must be positive"
  | _ -> ());
  let sim = sys.Sysbuild.sys_sim in
  let client = Sim.register sim (Sysbuild.app_spec "loadgen" ~image_kb:24) in
  Sim.grant sim ~client ~server:server.Server.ws_http;
  let streams = Rng.streams (Rng.create cfg.lg_seed) 3 in
  let arrival_rng = streams.(0) in
  let client_rng = streams.(1) in
  let conn_rng = streams.(2) in
  let next_gap = gap_stepper cfg.lg_arrival arrival_rng in
  (* accept queue: (client id, arrival ns, keep-alive connection) *)
  let queue = Queue.create () in
  let idle = ref [] in
  let gen_done = ref false in
  let exited = ref 0 in
  let run_done = ref false in
  let faults = ref 0 in
  let start_ns = ref 0 in
  let end_ns = ref 0 in
  let reqs = ref [] in
  let req_text = Httpmsg.render_request ~path:"/index.html" in
  let record sim r =
    reqs := r :: !reqs;
    Sim.emit sim
      (Sg_obs.Event.Http_req
         {
           cid = server.Server.ws_http;
           client = r.Reqjoin.rq_client;
           arrival_ns = r.Reqjoin.rq_arrival_ns;
           start_ns = r.Reqjoin.rq_start_ns;
           finish_ns = r.Reqjoin.rq_finish_ns;
           status = r.Reqjoin.rq_status;
           outcome = r.Reqjoin.rq_outcome;
         })
  in
  let serve sim ~client:cl ~arrival ~keep =
    let t0 = Sim.now sim in
    (* connection churn: a fresh connection pays TCP/TLS-style setup *)
    if not keep then Sim.charge sim cfg.lg_conn_setup_ns;
    let status, outcome =
      match
        Sim.invoke sim ~server:server.Server.ws_http "http_get"
          [ Comp.VStr req_text ]
      with
      | Ok (Comp.VStr resp) -> (
          match Httpmsg.status_of_response resp with
          | Ok 200 -> (200, "ok")
          | Ok status -> (status, "error")
          | Error _ -> (0, "error"))
      | Ok _ | Error _ -> (0, "error")
      | exception Comp.Crash _ -> (0, "failed")
      | exception Comp.Sys_propagated _ -> (0, "failed")
    in
    let t1 = Sim.now sim in
    record sim
      {
        Reqjoin.rq_client = cl;
        rq_arrival_ns = arrival;
        rq_start_ns = t0;
        rq_finish_ns = t1;
        rq_status = status;
        rq_outcome = outcome;
      }
  in
  (* Workers drain the accept queue; an empty queue parks the worker on
     the idle list under [Sim.block] — never a spin-yield, which would
     pin virtual time and starve the sleeping generator. The generator
     wakes exactly one parked worker per enqueue; a woken worker drains
     until empty, so no enqueued request is stranded. *)
  for w = 1 to cfg.lg_workers do
    ignore
      (Sim.spawn sim ~prio:5
         ~name:(Printf.sprintf "lg-worker-%d" w)
         ~home:client
         (fun sim ->
           Server.wait_ready server sim;
           let rec loop () =
             match Queue.take_opt queue with
             | Some (cl, arrival, keep) ->
                 serve sim ~client:cl ~arrival ~keep;
                 loop ()
             | None ->
                 if not !gen_done then begin
                   idle := Sim.current_tid sim :: !idle;
                   Sim.block sim;
                   loop ()
                 end
           in
           loop ();
           incr exited;
           if !exited = cfg.lg_workers then begin
             end_ns := Sim.now sim;
             run_done := true;
             Server.stop sys server
           end))
  done;
  (* The generator: strictly-increasing absolute arrival instants on the
     virtual clock. A full accept queue bounces the request immediately
     (503, outcome "dropped", zero sojourn) — open-loop load does not
     wait for admission. Same priority as the workers: the scheduler's
     min-heap picks strictly by priority first, so a higher-priority
     fiber that ever yield-waits (as [wait_ready] does) would starve
     the prio-5 server init threads forever. *)
  ignore
    (Sim.spawn sim ~prio:5 ~name:"lg-gen" ~home:client (fun sim ->
         Server.wait_ready server sim;
         start_ns := Sim.now sim;
         let next_t = ref !start_ns in
         for _ = 1 to cfg.lg_requests do
           next_t := !next_t + next_gap ();
           Sim.sleep_until sim !next_t;
           let now = Sim.now sim in
           let cl = Rng.int client_rng cfg.lg_clients in
           let keep = Rng.bernoulli conn_rng cfg.lg_keepalive in
           if Queue.length queue >= cfg.lg_queue_cap then
             record sim
               {
                 Reqjoin.rq_client = cl;
                 rq_arrival_ns = now;
                 rq_start_ns = now;
                 rq_finish_ns = now;
                 rq_status = 503;
                 rq_outcome = "dropped";
               }
           else begin
             Queue.add (cl, now, keep) queue;
             match !idle with
             | tid :: rest ->
                 idle := rest;
                 ignore (Sim.wakeup sim tid)
             | [] -> ()
           end
         done;
         gen_done := true;
         List.iter (fun tid -> ignore (Sim.wakeup sim tid)) !idle;
         idle := []));
  Option.iter
    (fun period_ns ->
      Server.crash_rotation sys ~name:"lg-swifi" ~period_ns
        ~stop:(fun () -> !run_done)
        ~faults)
    fault_period_ns;
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r ->
      failwith
        (Format.asprintf "open-loop run did not complete: %a" Sim.pp_run_result
           r));
  {
    lr_reqs = List.rev !reqs;
    lr_faults = !faults;
    lr_start_ns = !start_ns;
    lr_end_ns = !end_ns;
  }

(* {2 Self-contained runs and sweeps} *)

type outcome = {
  oc_fault_period_ns : int option;
  oc_result : result;
  oc_join : Reqjoin.t;
  oc_reboots : int;
}

let run_open ~mode ?fault_period_ns cfg =
  let sys = Sysbuild.build ~seed:cfg.lg_seed mode in
  let server = Server.install sys in
  (* stitched live: the sink's [Recovery] log keeps none of the span
     ends that complete an episode *)
  let epb = Sg_obs.Episode.builder () in
  Sg_obs.Episode.attach epb (Sim.obs sys.Sysbuild.sys_sim);
  let result = run ?fault_period_ns cfg sys server in
  let join = Reqjoin.join ~episodes:(Sg_obs.Episode.finish epb) result.lr_reqs in
  {
    oc_fault_period_ns = fault_period_ns;
    oc_result = result;
    oc_join = join;
    oc_reboots = Sim.reboots sys.Sysbuild.sys_sim;
  }

(* Fault-period sweep over the deterministic pool: each period is one
   independent simulator, results are consumed in period order, so the
   list (and anything rendered from it) is byte-identical at every
   [jobs]. *)
let sweep ?(jobs = 1) ~mode ~periods cfg =
  let tasks = Array.of_list periods in
  let out = ref [] in
  Sg_util.Pool.run ~jobs ~count:(Array.length tasks)
    ~task:(fun ~cancelled:_ i -> run_open ~mode ?fault_period_ns:tasks.(i) cfg)
    ~consume:(fun _ r ->
      out := r :: !out;
      Sg_util.Pool.Continue)
    ();
  List.rev !out
