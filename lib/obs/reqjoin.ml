(* Request/episode join: attribute open-loop request latencies to the
   recovery episodes they overlapped.

   A request is *fault-shadowed* when its sojourn window
   [arrival, finish] intersects some episode's [detect, end] window —
   its latency may include reboot stalls, descriptor walks or queueing
   behind either. Everything else is the *clean* population: the
   baseline the shadowed tail is judged against. The same pass derives
   offered-vs-served throughput and a queue-depth profile (requests
   arrived but not yet started) from the timestamps alone, so a replayed
   JSON-lines stream yields the identical report. *)

module E = Episode

type req = {
  rq_client : int;
  rq_arrival_ns : int;
  rq_start_ns : int;
  rq_finish_ns : int;
  rq_status : int;
  rq_outcome : string;
}

let req_of_kind = function
  | Event.Http_req { client; arrival_ns; start_ns; finish_ns; status; outcome; _ }
    ->
      Some
        {
          rq_client = client;
          rq_arrival_ns = arrival_ns;
          rq_start_ns = start_ns;
          rq_finish_ns = finish_ns;
          rq_status = status;
          rq_outcome = outcome;
        }
  | _ -> None

let latency_ns r = r.rq_finish_ns - r.rq_arrival_ns

type episode_impact = {
  ei_cid : int;
  ei_detect_ns : int;
  ei_end_ns : int;
  ei_complete : bool;
  ei_requests : int;
  ei_p99_ns : int;
  ei_max_ns : int;
  ei_mean_ns : float;
}

type t = {
  tj_offered : int;
  tj_served : int;
  tj_errors : int;
  tj_dropped : int;
  tj_failed : int;
  tj_first_arrival_ns : int;
  tj_window_ns : int;
  tj_all : Hist.t;
  tj_clean : Hist.t;
  tj_shadowed : Hist.t;
  tj_queue_depth : Hist.t;
  tj_queue_max : int;
  tj_episodes : episode_impact list;
}

(* 2^5 = 32 sub-buckets per octave: ~3% relative resolution, so p999
   resolves far finer than the 2x steps of the default Log2 layout *)
let hist_mode = Hist.Log_linear 5

(* [merge_runs key p tmp lo mid hi] merges the sorted runs [lo, mid)
   and [mid, hi) of the permutation [p], ordered by [key]. Entries of
   the left run no greater than the right run's first, and entries of
   the right run no less than the left run's last, are already in place,
   so only the overlap between them moves: on keys that are each a few
   places from their sorted position the merge costs that overlap, not
   the runs' length. Ties keep the left entry first. *)
let merge_runs (key : int array) p tmp lo mid hi =
  let last_left = key.(p.(mid - 1)) and first_right = key.(p.(mid)) in
  if last_left > first_right then begin
    let a = ref (mid - 1) in
    while !a > lo && key.(p.(!a - 1)) > first_right do
      decr a
    done;
    let b = ref (mid + 1) in
    while !b < hi && key.(p.(!b)) < last_left do
      incr b
    done;
    let len = mid - !a in
    Array.blit p !a tmp 0 len;
    let i = ref 0 and j = ref mid and o = ref !a in
    while !i < len && !j < !b do
      if key.(p.(!j)) < key.(tmp.(!i)) then begin
        p.(!o) <- p.(!j);
        incr j
      end
      else begin
        p.(!o) <- tmp.(!i);
        incr i
      end;
      incr o
    done;
    (* a right-run remainder already sits at [!o = !j, !b) *)
    Array.blit tmp !i p !o (len - !i)
  end

(* [stable_order key n]: the indices [0, n) in ascending order of their
   keys, equal keys in index order. Runs of [insertion_run] are
   insertion-sorted, then merged bottom-up with [merge_runs]: linear
   when every key is a few places from its sorted position (the request
   records of a run, which arrive in finish order), O(n log n) on any
   order. *)
let insertion_run = 16

let stable_order (key : int array) n =
  let p = Array.make n 0 in
  for i = 0 to n - 1 do
    p.(i) <- i
  done;
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + insertion_run) in
    for i = !lo + 1 to hi - 1 do
      let x = p.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && key.(p.(!j)) > key.(x) do
        p.(!j + 1) <- p.(!j);
        decr j
      done;
      p.(!j + 1) <- x
    done;
    lo := hi
  done;
  let tmp = Array.make n 0 in
  let width = ref insertion_run in
  while !width < n do
    let lo = ref 0 in
    while !lo + !width < n do
      let mid = !lo + !width in
      let hi = min n (mid + !width) in
      merge_runs key p tmp !lo mid hi;
      lo := hi
    done;
    width := 2 * !width
  done;
  p

let queue_depth_profile reqs =
  (* merge arrival (+1) and start (-1) instants in time order; each
     arrival samples the backlog including itself, a dropped request's
     arrival samples it without joining. At an equal instant arrivals
     and drops go first, in list order, so an immediately-served request
     still samples depth 1: the order is total, hence the profile
     deterministic for any input permutation. *)
  let n = List.length reqs in
  let arrival = Array.make n 0 and dropped = Array.make n false in
  let start = Array.make n 0 and starts = ref 0 in
  List.iteri
    (fun uid r ->
      arrival.(uid) <- r.rq_arrival_ns;
      if r.rq_outcome = "dropped" then dropped.(uid) <- true
      else begin
        start.(!starts) <- r.rq_start_ns;
        incr starts
      end)
    reqs;
  let starts = !starts in
  let by_arrival = stable_order arrival n in
  let by_start = stable_order start starts in
  let hist = Hist.create ~mode:hist_mode () in
  let depth = ref 0 and max_d = ref 0 and next_start = ref 0 in
  for i = 0 to n - 1 do
    let uid = by_arrival.(i) in
    let t = arrival.(uid) in
    while !next_start < starts && start.(by_start.(!next_start)) < t do
      decr depth;
      incr next_start
    done;
    if dropped.(uid) then Hist.add hist (max 1 (!depth + 1))
    else begin
      incr depth;
      if !depth > !max_d then max_d := !depth;
      Hist.add hist !depth
    end
  done;
  (hist, !max_d)

(* the first index in [0, n) whose [a.(i) >= v], [n] if none; [a] is
   non-decreasing *)
let first_at_least (a : int array) n v =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if a.(mid) >= v then go lo mid else go (mid + 1) hi
  in
  go 0 n

let join ?(episodes = []) reqs =
  let eps =
    List.sort (fun a b -> Int.compare a.E.ep_detect_ns b.E.ep_detect_ns) episodes
    |> Array.of_list
  in
  let n_eps = Array.length eps in
  let detect = Array.map (fun ep -> ep.E.ep_detect_ns) eps in
  (* [reach.(i)]: the latest end among episodes [0..i]. A request
     arriving at [a] overlaps no episode before the first [i] with
     [reach.(i) >= a], so the sweep starts there *)
  let reach = Array.make n_eps 0 in
  Array.iteri
    (fun i ep ->
      reach.(i) <-
        (if i = 0 then ep.E.ep_end_ns else max reach.(i - 1) ep.E.ep_end_ns))
    eps;
  (* each episode's shadowed latencies, newest first *)
  let per_ep = Array.make n_eps [] in
  let all = Hist.create ~mode:hist_mode () in
  let clean = Hist.create ~mode:hist_mode () in
  let shadowed = Hist.create ~mode:hist_mode () in
  let served = ref 0
  and errors = ref 0
  and dropped = ref 0
  and failed = ref 0 in
  let first_arrival = ref max_int and last_finish = ref min_int in
  List.iter
    (fun r ->
      (match r.rq_outcome with
      | "ok" -> incr served
      | "error" -> incr errors
      | "dropped" -> incr dropped
      | _ -> incr failed);
      if r.rq_arrival_ns < !first_arrival then first_arrival := r.rq_arrival_ns;
      if r.rq_finish_ns > !last_finish then last_finish := r.rq_finish_ns;
      let lat = latency_ns r in
      Hist.add all lat;
      let hit = ref false in
      (* episodes are detect-sorted: stop once detection is past finish *)
      let i = ref (first_at_least reach n_eps r.rq_arrival_ns) in
      while !i < n_eps && detect.(!i) <= r.rq_finish_ns do
        if eps.(!i).E.ep_end_ns >= r.rq_arrival_ns then begin
          hit := true;
          per_ep.(!i) <- lat :: per_ep.(!i)
        end;
        incr i
      done;
      Hist.add (if !hit then shadowed else clean) lat)
    reqs;
  let impacts =
    Array.to_list
      (Array.mapi
         (fun i ep ->
           let lats = Array.of_list per_ep.(i) in
           let n = Array.length lats in
           let max_v = ref min_int and sum = ref 0 in
           for j = 0 to n - 1 do
             if lats.(j) > !max_v then max_v := lats.(j);
             sum := !sum + lats.(j)
           done;
           {
             ei_cid = ep.E.ep_cid;
             ei_detect_ns = ep.E.ep_detect_ns;
             ei_end_ns = ep.E.ep_end_ns;
             ei_complete = ep.E.ep_complete;
             ei_requests = n;
             ei_p99_ns = Hist.percentile_of_samples hist_mode lats 0.99;
             ei_max_ns = (if n = 0 then 0 else !max_v);
             ei_mean_ns = (if n = 0 then 0.0 else float_of_int !sum /. float_of_int n);
           })
         eps)
  in
  let queue_depth, queue_max = queue_depth_profile reqs in
  {
    tj_offered = List.length reqs;
    tj_served = !served;
    tj_errors = !errors;
    tj_dropped = !dropped;
    tj_failed = !failed;
    tj_first_arrival_ns = (if !first_arrival = max_int then 0 else !first_arrival);
    tj_window_ns =
      (if !last_finish = min_int then 0
       else max 1 (!last_finish - !first_arrival));
    tj_all = all;
    tj_clean = clean;
    tj_shadowed = shadowed;
    tj_queue_depth = queue_depth;
    tj_queue_max = queue_max;
    tj_episodes = impacts;
  }

let of_events events =
  let reqs = List.filter_map (fun e -> req_of_kind e.Event.kind) events in
  join ~episodes:(Episode.of_events events) reqs

let offered_rps t =
  if t.tj_window_ns = 0 then 0.0
  else float_of_int t.tj_offered *. 1e9 /. float_of_int t.tj_window_ns

let served_rps t =
  if t.tj_window_ns = 0 then 0.0
  else float_of_int t.tj_served *. 1e9 /. float_of_int t.tj_window_ns

(* {2 Rendering} *)

let json_version = 1

let hist_json h =
  let open Sg_util.Json in
  Obj
    [
      ("n", Int (Hist.n h));
      ("mean_ns", Float (Hist.mean h));
      ("stddev_ns", Float (Hist.stddev h));
      ("min_ns", Int (Hist.min_value h));
      ("p50_ns", Int (Hist.percentile h 0.50));
      ("p90_ns", Int (Hist.percentile h 0.90));
      ("p99_ns", Int (Hist.percentile h 0.99));
      ("p999_ns", Int (Hist.percentile h 0.999));
      ("max_ns", Int (Hist.max_value h));
    ]

let to_json t =
  let open Sg_util.Json in
  let episode e =
    Obj
      [
        ("cid", Int e.ei_cid);
        ("detect_ns", Int e.ei_detect_ns);
        ("end_ns", Int e.ei_end_ns);
        ("complete", Bool e.ei_complete);
        ("requests", Int e.ei_requests);
        ("p99_ns", Int e.ei_p99_ns);
        ("max_ns", Int e.ei_max_ns);
        ("mean_ns", Float e.ei_mean_ns);
      ]
  in
  Obj
    [
      ("offered", Int t.tj_offered);
      ("served", Int t.tj_served);
      ("errors", Int t.tj_errors);
      ("dropped", Int t.tj_dropped);
      ("failed", Int t.tj_failed);
      ("window_ns", Int t.tj_window_ns);
      ("offered_rps", Float (offered_rps t));
      ("served_rps", Float (served_rps t));
      ( "queue",
        Obj
          [
            ("max", Int t.tj_queue_max);
            ("mean", Float (Hist.mean t.tj_queue_depth));
            ("p99", Int (Hist.percentile t.tj_queue_depth 0.99));
          ] );
      ( "latency",
        Obj
          [
            ("all", hist_json t.tj_all);
            ("clean", hist_json t.tj_clean);
            ("shadowed", hist_json t.tj_shadowed);
          ] );
      ("episodes_total", Int (List.length t.tj_episodes));
      ("episodes", List (List.map episode t.tj_episodes));
    ]

let pp_hist_row ppf (label, h) =
  if Hist.n h = 0 then Format.fprintf ppf "  %-9s (empty)@." label
  else
    Format.fprintf ppf
      "  %-9s n=%-8d p50=%-9d p99=%-9d p999=%-9d max=%-9d mean=%.0f sd=%.0f@."
      label (Hist.n h)
      (Hist.percentile h 0.50)
      (Hist.percentile h 0.99)
      (Hist.percentile h 0.999)
      (Hist.max_value h) (Hist.mean h) (Hist.stddev h)

let pp ppf t =
  Format.fprintf ppf
    "offered %d (%.0f req/s) served %d (%.0f req/s) errors %d dropped %d \
     failed %d@."
    t.tj_offered (offered_rps t) t.tj_served (served_rps t) t.tj_errors
    t.tj_dropped t.tj_failed;
  Format.fprintf ppf "queue depth: max %d mean %.1f p99 %d@." t.tj_queue_max
    (Hist.mean t.tj_queue_depth)
    (Hist.percentile t.tj_queue_depth 0.99);
  Format.fprintf ppf "request latency (ns):@.";
  List.iter
    (pp_hist_row ppf)
    [ ("all", t.tj_all); ("clean", t.tj_clean); ("shadowed", t.tj_shadowed) ];
  let shown = List.filter (fun e -> e.ei_requests > 0) t.tj_episodes in
  Format.fprintf ppf "episodes: %d (%d with overlapping requests)@."
    (List.length t.tj_episodes)
    (List.length shown);
  let clean_p99 = Hist.percentile t.tj_clean 0.99 in
  List.iter
    (fun e ->
      Format.fprintf ppf
        "  cid %-3d detect=%-12d span=%-9d reqs=%-6d p99=%-9d (%+dns vs clean \
         p99) max=%d@."
        e.ei_cid e.ei_detect_ns
        (e.ei_end_ns - e.ei_detect_ns)
        e.ei_requests e.ei_p99_ns
        (e.ei_p99_ns - clean_p99)
        e.ei_max_ns)
    shown
