(* Multicore campaign driver, built on the deterministic speculative
   pool ({!Sg_util.Pool}).

   Campaign chunks are independent deterministic runs keyed by
   (mode, iface, chunk_seed): each one builds a fresh simulator and its
   own sink, so chunks can execute on separate domains with no shared
   mutable state. The only sequential dependency in [Campaign.run] is
   the injection *budget*: chunk [i] runs with
   [budget = injections - injected so far], so its cap depends on every
   earlier chunk.

   We break that dependency speculatively. Workers run chunks uncapped
   ([budget = injections], the loosest cap any sequential chunk can get)
   and the merge replays the sequential budget arithmetic in seed order:

   - if a speculative chunk injected strictly fewer faults than the
     sequential [remaining] at its position, its cap was not binding in
     either execution — the runs are identical and the speculative row
     is reused as-is;
   - otherwise the cap *was* binding sequentially (this is the campaign's
     final chunk): the chunk is re-run once, in the merging domain, with
     the exact sequential budget.

   The merged row is therefore equal, count for count, to what
   [Campaign.run] produces — verified by the [pardriver] golden tests
   and the qcheck jobs/budget determinism property.

   Scaling comes from how the chunks are fanned out:

   - chunk seeds are grouped into *batches* sized so one work item
     amortizes domain hand-off over ~100 injections (derived from the
     first chunk's injection count);
   - a batch's chunk results — rows, event buffers, stitched episodes —
     stay private to the worker until the whole batch is published with
     one atomic store; there is no rendezvous per chunk;
   - the pool bounds worker lookahead relative to the merge cursor, so
     speculative results cannot pile up unboundedly and post-campaign
     waste is at most the in-flight batches (workers also poll
     [cancelled] between chunks and cut the current batch short);
   - events are collected into preallocated growable buffers rather
     than a consed-and-reversed list. *)

module Pool = Sg_util.Pool

(* Growable event buffer: doubling array, list only materialized at
   delivery. Keeps the per-event hot path to one bounds check and one
   store. *)
module Ebuf = struct
  type t = { mutable a : Sg_obs.Event.t array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push b e =
    let cap = Array.length b.a in
    if b.n = cap then begin
      (* seed the fresh cells with [e]: no dummy event needed *)
      let a = Array.make (if cap = 0 then 256 else 2 * cap) e in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n e;
    b.n <- b.n + 1

  let to_list b = List.init b.n (Array.get b.a)
end

type chunk_result = {
  cr_injected : int;
  cr_row : Campaign.row;
  cr_events : Sg_obs.Event.t list;  (* in order; empty unless collecting *)
  cr_episodes : Sg_obs.Episode.t list;  (* empty unless stitching *)
}

let run_one ~collect ~episodes ~mode ~iface ~cmon_period_ns ~chunk_seed
    ~budget =
  let events = if collect then Some (Ebuf.create ()) else None in
  let on_event = Option.map (fun b e -> Ebuf.push b e) events in
  let episodes = if episodes then Some (Sg_obs.Episode.builder ()) else None in
  let injected, row =
    Campaign.run_chunk ?on_event ?episodes ~mode ~iface ~seed:chunk_seed
      ~period_ns:Campaign.period_ns ~iters:Campaign.chunk_iters ~budget
      ~cmon_period_ns ()
  in
  {
    cr_injected = injected;
    cr_row = row;
    cr_events = (match events with Some b -> Ebuf.to_list b | None -> []);
    cr_episodes =
      (match episodes with Some b -> Sg_obs.Episode.finish b | None -> []);
  }

(* Batch size in chunk seeds: aim for ~[target_injections] per work item
   (so domain hand-off is amortized), but never so coarse that the
   estimated remaining chunks split into fewer than ~4 batches per
   domain (so the tail stays balanced). Derived only from the first
   chunk's observed injection count and the campaign parameters — and
   since batching affects scheduling, never results, any choice yields
   the same output. *)
let derive_batch ~jobs ~injections ~first_injected =
  let target_injections = 100 in
  let per_chunk = max 1 first_injected in
  let by_target = (target_injections + per_chunk - 1) / per_chunk in
  let est_chunks = max 1 ((injections - first_injected) / per_chunk) in
  let by_balance = max 1 (est_chunks / (4 * jobs)) in
  max 1 (min by_target by_balance)

let run ?(seed = 1) ?cmon_period_ns ?on_chunk ?on_episodes ~jobs ~mode ~iface
    ~injections () =
  let jobs = max 1 jobs in
  let deliver chunk_seed r =
    (match on_chunk with Some f -> f ~seed:chunk_seed r.cr_events | None -> ());
    match on_episodes with Some f -> f ~seed:chunk_seed r.cr_episodes | None -> ()
  in
  let run_one =
    run_one ~collect:(on_chunk <> None) ~episodes:(on_episodes <> None) ~mode
      ~iface ~cmon_period_ns
  in
  if injections <= 0 then Campaign.empty iface
  else begin
    (* The first chunk's sequential budget is [injections] itself, so run
       it in this domain before engaging the pool: its injection count
       calibrates the batch size. *)
    let first = run_one ~chunk_seed:seed ~budget:injections in
    let acc = ref (Campaign.add (Campaign.empty iface) first.cr_row) in
    deliver seed first;
    if injections - !acc.Campaign.r_injected <= 0 then !acc
    else begin
      let batch =
        derive_batch ~jobs ~injections ~first_injected:first.cr_injected
      in
      let seed_of b k = seed + 1 + (b * batch) + k in
      (* one pool task = one batch of uncapped speculative chunks; the
         worker keeps the whole batch private and publishes it at once *)
      let task ~cancelled b =
        let out = Array.make batch None in
        let k = ref 0 in
        while !k < batch && not (cancelled ()) do
          out.(!k) <-
            Some (run_one ~chunk_seed:(seed_of b !k) ~budget:injections);
          incr k
        done;
        out
      in
      (* replay the sequential budget arithmetic over one published
         batch; [Stop] once the budget is met (re-running the binding
         final chunk with its exact sequential budget first) *)
      let consume b out =
        let decision = ref Pool.Continue in
        let k = ref 0 in
        while !decision = Pool.Continue && !k < batch do
          let chunk_seed = seed_of b !k in
          let remaining = injections - !acc.Campaign.r_injected in
          if remaining <= 0 then decision := Pool.Stop
          else begin
            let r =
              match out.(!k) with
              | Some r when r.cr_injected < remaining ->
                  (* cap not binding: identical to the sequential chunk *)
                  r
              | Some _ | None ->
                  (* the sequential cap would have stopped this chunk
                     early (or a cancelled worker never ran it): re-run
                     with the exact sequential budget *)
                  run_one ~chunk_seed ~budget:remaining
            in
            deliver chunk_seed r;
            acc := Campaign.add !acc r.cr_row;
            if injections - !acc.Campaign.r_injected <= 0 then
              decision := Pool.Stop;
            incr k
          end
        done;
        !decision
      in
      Pool.run ~jobs ~task ~consume ();
      !acc
    end
  end
