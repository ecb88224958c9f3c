module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Rng = Sg_util.Rng

type row = {
  r_iface : string;
  r_injected : int;
  r_recovered : int;
  r_segfault : int;
  r_propagated : int;
  r_other : int;
  r_undetected : int;
  r_reboots : int;
  r_first_access : Sg_obs.Hist.t;
}

let empty iface =
  {
    r_iface = iface;
    r_injected = 0;
    r_recovered = 0;
    r_segfault = 0;
    r_propagated = 0;
    r_other = 0;
    r_undetected = 0;
    r_reboots = 0;
    r_first_access = Sg_obs.Hist.create ();
  }

(* One workload execution with the injector armed; the outcome of each
   injected fault is accounted per the paper's definitions. The counts
   are read back from the simulator's metrics fold over the structured
   event stream (the injector emits one [Inject] event per fault). *)
let run_chunk ?on_event ?episodes ~mode ~iface ~seed ~period_ns ~iters ~budget
    ~cmon_period_ns () =
  let sys = Sysbuild.build ~seed mode in
  let sim = sys.Sysbuild.sys_sim in
  Option.iter (Sg_obs.Sink.subscribe (Sim.obs sim)) on_event;
  Option.iter (fun b -> Sg_obs.Episode.attach b (Sim.obs sim)) episodes;
  let check = Workloads.setup sys ~iface ~iters in
  let inj =
    Injector.create ?cmon_period_ns
      ~target:(Sysbuild.cid_of_iface sys iface)
      ~period_ns ~max_injections:budget
      ~rng:(Rng.create (seed * 7919))
      ()
  in
  Injector.install sim inj;
  let result = Sim.run sim in
  let m = Sim.metrics sim in
  let injected = Sg_obs.Metrics.injections m in
  let failstops = Sg_obs.Metrics.outcome_count m "failstop" in
  let undetected = Sg_obs.Metrics.outcome_count m "undetected" in
  let segfault = Sg_obs.Metrics.outcome_count m "segfault" in
  let propagated = Sg_obs.Metrics.outcome_count m "propagated" in
  let hangs = Sg_obs.Metrics.outcome_count m "hang" in
  (* with the C'MON monitor armed, latent hangs are converted into
     detected fail-stops and recovered like any other fault *)
  let failstops, hangs =
    if cmon_period_ns <> None then (failstops + hangs, 0) else (failstops, hangs)
  in
  let recovered, other =
    match result with
    | Sim.Completed ->
        if check () = [] then (failstops, hangs)
        else
          (* recovery produced an incorrect execution: every detected
             fault of the run counts as not recovered *)
          (0, hangs + failstops)
    | Sim.Fatal (Sim.Fatal_segfault _ | Sim.Fatal_propagated _) ->
        (* execution demonstrably continued past the earlier fail-stop
           recoveries; the terminal fault is already in its own column *)
        (failstops, hangs)
    | Sim.Fatal (Sim.Fatal_hang _) -> (failstops, hangs)
    | Sim.Fatal (Sim.Fatal_uncaught _) | Sim.Deadlock ->
        (* an unconverged recovery or a stuck thread: the terminal
           fail-stop was not recovered *)
        (max 0 (failstops - 1), hangs + min 1 failstops)
  in
  ( injected,
    {
      r_iface = iface;
      r_injected = injected;
      r_recovered = recovered;
      r_segfault = segfault;
      r_propagated = propagated;
      r_other = other;
      r_undetected = undetected;
      r_reboots = Sg_obs.Metrics.reboots m;
      (* handed over, not copied: the simulator (and its metrics) is
         dropped when the chunk ends, and [add] merges into a fresh
         histogram *)
      r_first_access = Sg_obs.Metrics.first_access_hist m;
    } )

let add a b =
  {
    a with
    r_injected = a.r_injected + b.r_injected;
    r_recovered = a.r_recovered + b.r_recovered;
    r_segfault = a.r_segfault + b.r_segfault;
    r_propagated = a.r_propagated + b.r_propagated;
    r_other = a.r_other + b.r_other;
    r_undetected = a.r_undetected + b.r_undetected;
    r_reboots = a.r_reboots + b.r_reboots;
    r_first_access =
      (* merge into a fresh histogram: [add] must not mutate its
         operands (Pardriver reuses speculative chunk rows) *)
      (let h = Sg_obs.Hist.create () in
       Sg_obs.Hist.merge h a.r_first_access;
       Sg_obs.Hist.merge h b.r_first_access;
       h);
  }

let period_ns = 20_000
let chunk_iters = 400

let run ?(seed = 1) ?cmon_period_ns ?on_event ~mode ~iface ~injections () =
  let rec go acc chunk_seed =
    let remaining = injections - acc.r_injected in
    if remaining <= 0 then acc
    else
      let _injected, row =
        run_chunk ?on_event ~mode ~iface ~seed:chunk_seed ~period_ns
          ~iters:chunk_iters ~budget:remaining ~cmon_period_ns ()
      in
      (* even when the workload finished before the first injection was
         due (injected = 0), keep going with a fresh run: the next chunk
         seed reshuffles the injection schedule *)
      go (add acc row) (chunk_seed + 1)
  in
  go (empty iface) seed

let activation_ratio r =
  if r.r_injected = 0 then 0.0
  else
    float_of_int (r.r_injected - r.r_undetected) /. float_of_int r.r_injected

let success_rate r =
  let activated = r.r_injected - r.r_undetected in
  if activated = 0 then 0.0
  else float_of_int r.r_recovered /. float_of_int activated

(* Static-bound verification, streamed: each chunk's stitched episodes
   are folded as they merge instead of retaining a campaign-long list.
   Only the violations themselves are kept. Incomplete episodes
   undercount their span and are counted but not checked. *)
type bounds = {
  b_episodes : int;
  b_complete : int;
  b_max_span_ns : int;
  b_violations : Sg_obs.Episode.t list;
}

let no_bounds =
  { b_episodes = 0; b_complete = 0; b_max_span_ns = 0; b_violations = [] }

let fold_bounds ~bound_ns acc eps =
  List.fold_left
    (fun acc e ->
      let acc = { acc with b_episodes = acc.b_episodes + 1 } in
      if not e.Sg_obs.Episode.ep_complete then acc
      else
        let s = Sg_obs.Episode.span_ns e in
        {
          acc with
          b_complete = acc.b_complete + 1;
          b_max_span_ns = max acc.b_max_span_ns s;
          b_violations =
            (if s > bound_ns then e :: acc.b_violations else acc.b_violations);
        })
    acc eps

let pp_row ppf r =
  Format.fprintf ppf
    "%s: injected=%d recovered=%d segfault=%d propagated=%d other=%d \
     undetected=%d activation=%.2f%% success=%.2f%%"
    r.r_iface r.r_injected r.r_recovered r.r_segfault r.r_propagated r.r_other
    r.r_undetected
    (100.0 *. activation_ratio r)
    (100.0 *. success_rate r)
