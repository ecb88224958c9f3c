(** Deterministic speculative domain pool.

    [run] executes an index-ordered stream of pure tasks across [jobs]
    OCaml domains and hands every result, in index order, to a [consume]
    callback running in the caller's domain. The consumer decides after
    each result whether the stream continues — so a campaign whose
    length is only known as it unfolds (stop after N accepted events,
    stop at the first failure, …) can still be fanned out: workers run
    *speculatively* ahead of the consume cursor, and anything past the
    stopping point is simply discarded.

    Because every task is required to be a pure function of its index,
    the consumed prefix — and therefore anything the caller derives from
    it — is identical for every [jobs], every [lookahead], and every
    scheduling interleaving. Parallelism changes wall-clock time only.

    Shared state: a task may read a process-wide value only if that
    value is built at module initialisation or is [Atomic]. Anything
    filled on first use (a [lazy], a memo table) races when two domains
    reach it together, so no caller warms caches before fanning out.

    Mechanics (one shared chunk queue, bounded speculation):

    - indices are claimed from a single atomic counter; all [jobs]
      domains — the [jobs - 1] spawned workers *and* the caller's
      domain, which helps whenever the next needed result is not ready —
      pull from it, so work balances itself without per-domain queues;
    - a claim is only granted while [index < cursor + lookahead], which
      bounds both the pending-result table (a fixed ring of [lookahead]
      slots) and the work wasted past a [Stop];
    - results are published to the ring with a single atomic store; the
      consumer is woken through a mutex/condvar only when the published
      index is the one it is blocked on, so there is no per-task
      rendezvous on the hot path;
    - [stop] is checked before a claim is granted (a worker never starts
      a task that cannot be consumed anymore) and is exposed to running
      tasks via [cancelled], so a long task can cut its own tail short.

    Error contract: a task exception is re-raised in the caller's domain
    when the consume cursor reaches that task's index; an exception from
    [consume] propagates directly. In both cases every spawned domain is
    joined *before* the exception escapes [run], and no result outlives
    the call — the ring is private to it. *)

type decision =
  | Continue  (** keep consuming *)
  | Stop  (** stop the stream; in-flight speculative results are discarded *)

val run :
  jobs:int ->
  ?count:int ->
  ?lookahead:int ->
  task:(cancelled:(unit -> bool) -> int -> 'a) ->
  consume:(int -> 'a -> decision) ->
  unit ->
  unit
(** [run ~jobs ~task ~consume ()] feeds [consume 0 (task 0)],
    [consume 1 (task 1)], … until [consume] answers [Stop] (or [count]
    tasks were consumed, when given). [task] must be a pure function of
    its index: it runs exactly once, on an arbitrary domain, and indices
    may execute out of order. [consume] always runs in the calling
    domain, strictly in index order.

    [jobs] is the total domain count including the caller (clamped to
    ≥ 1; [jobs = 1] spawns nothing and degenerates to a sequential
    loop). [count] bounds the index stream; omitted, the stream is
    unbounded and only [Stop] (or an exception) ends it. [lookahead]
    (default [max 4 (2 * jobs)]) is the maximum number of tasks allowed
    in flight or pending beyond the consume cursor.

    [cancelled ()] flips to [true] once the pool is stopping; a task
    seeing [true] may return early with any value — its result is
    guaranteed not to be consumed. *)
