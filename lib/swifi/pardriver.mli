(** Multicore SWIFI campaign driver.

    Fans {!Campaign} chunks across [jobs] domains through the
    deterministic speculative pool ({!Sg_util.Pool}): chunk seeds are
    grouped into batches sized to amortize domain hand-off over ~100
    injections (calibrated on the first chunk's injection count), each
    batch's results stay private to its worker until published with one
    atomic store, and worker lookahead is bounded relative to the merge
    cursor, so speculative results never pile up unboundedly and
    post-campaign waste is at most the in-flight batches. Each chunk
    builds its own simulator and sink, so chunks share no mutable
    state. The merge replays the sequential budget arithmetic in seed
    order, re-running (at most) the campaign's final chunk with its
    exact sequential budget, so the merged row equals — count for count
    — the row {!Campaign.run} produces with the same parameters, for
    every [jobs].

    [jobs = 1] takes the same path, with the calling domain as the only
    worker: output (including any trace delivered through [on_chunk])
    is byte-identical to {!Campaign.run} and to every other [jobs].

    [on_chunk] is called in merge (seed) order, once per chunk whose row
    was used, with that chunk's full event stream (every emission, as a
    subscriber sees it). Event sequence numbers and timestamps restart
    per chunk; concatenating streams for [sgtrace check] requires
    re-stamping and a ["sys-reboot"] note at each boundary (see
    [bin/campaign.ml]). Events are only collected when [on_chunk] is
    given.

    [on_episodes] turns on per-chunk recovery-episode stitching (each
    chunk's builder attached through {!Campaign.run_chunk}'s [episodes])
    and streams each used chunk's episode list in merge (seed) order;
    the lists are deterministic across [jobs] because discarded
    speculative chunks also discard their episodes. The returned row
    carries counts only, so a million-injection campaign can be
    bound-checked in constant memory.

    An exception from a worker chunk propagates in the calling domain
    after every spawned domain has been joined; no chunk result outlives
    the call. *)

val run :
  ?seed:int ->
  ?cmon_period_ns:int ->
  ?on_chunk:(seed:int -> Sg_obs.Event.t list -> unit) ->
  ?on_episodes:(seed:int -> Sg_obs.Episode.t list -> unit) ->
  jobs:int ->
  mode:Sg_components.Sysbuild.mode ->
  iface:string ->
  injections:int ->
  unit ->
  Campaign.row
