(* Scenario shrinking: fixpoint of single-element removals.

   A candidate is the scenario with exactly one op removed, one fault
   removed, or (Classic workloads) one shape knob decremented. Each
   sweep evaluates candidates in index order and commits the
   lowest-index one that still fails with the SAME verdict class; the
   loop ends when no candidate does. The result is 1-minimal by
   construction: every single removal was tried against the final
   scenario and made it pass (or fail differently).

   Parallel mode fans candidate evaluation across OCaml domains through
   the deterministic speculative pool ({!Sg_util.Pool}): verdicts are
   consumed in candidate order and the sweep stops at the first failing
   one, so the committed chain of scenarios is identical at every
   [jobs] and a shrunk artifact is byte-for-byte reproducible
   regardless of parallelism. *)

type stats = {
  sh_sweeps : int;  (** committed removals + the final fruitless sweep *)
  sh_evals : int;
      (** candidate verdicts consumed (plus the reference run) — the
          [jobs]-independent count; speculative evaluations discarded
          past a sweep's commit point are not included *)
  sh_removed : int;  (** elements removed from the original scenario *)
}

let remove_nth n l = List.filteri (fun i _ -> i <> n) l

let size sc =
  List.length sc.Exec.sc_plan
  +
  match sc.Exec.sc_workload with
  | Exec.Ops ops -> List.length ops
  | Exec.Classic { iters; knob; _ } -> iters + knob

(* candidates in a fixed order: workload reductions first (they shrink
   the expensive part fastest), then plan reductions *)
let candidates sc =
  let workload_cands =
    match sc.Exec.sc_workload with
    | Exec.Ops ops ->
        List.init (List.length ops) (fun i ->
            { sc with Exec.sc_workload = Exec.Ops (remove_nth i ops) })
    | Exec.Classic { iface; iters; knob } ->
        (if iters > 1 then
           [ { sc with Exec.sc_workload = Exec.Classic { iface; iters = iters - 1; knob } } ]
         else [])
        @
        if knob > 1 then
          [ { sc with Exec.sc_workload = Exec.Classic { iface; iters; knob = knob - 1 } } ]
        else []
  in
  let plan_cands =
    List.init (List.length sc.Exec.sc_plan) (fun i ->
        { sc with Exec.sc_plan = remove_nth i sc.Exec.sc_plan })
  in
  workload_cands @ plan_cands

let fails ~sut ~cls sc =
  match Exec.run ~sut sc with
  | o -> Exec.verdict_class o.Exec.oc_verdict = cls
  | exception _ -> false

(* lowest-index failing candidate: candidates evaluate speculatively
   across the pool's domains, verdicts are consumed in index order, and
   the sweep stops at the first failure — so a hit near the front
   doesn't cost a full sweep, and the committed candidate is the same
   at every [jobs]. [evals] counts consumed verdicts, which keeps the
   reported stats [jobs]-independent too. *)
let find_failing ~jobs ~sut ~cls ~evals cands =
  let arr = Array.of_list cands in
  let found = ref None in
  Sg_util.Pool.run ~jobs ~count:(Array.length arr)
    ~task:(fun ~cancelled:_ i -> fails ~sut ~cls arr.(i))
    ~consume:(fun i failed ->
      incr evals;
      if failed then begin
        found := Some arr.(i);
        Sg_util.Pool.Stop
      end
      else Sg_util.Pool.Continue)
    ();
  !found

let shrink ?(jobs = 1) ?(sut = Exec.Pristine) sc =
  let reference = Exec.run ~sut sc in
  let cls = Exec.verdict_class reference.Exec.oc_verdict in
  if cls = "pass" then
    invalid_arg "Shrink.shrink: scenario passes, nothing to shrink";
  let evals = ref 1 in
  let sweeps = ref 0 in
  let rec fixpoint sc =
    incr sweeps;
    match find_failing ~jobs ~sut ~cls ~evals (candidates sc) with
    | Some smaller -> fixpoint smaller
    | None -> sc
  in
  let final = fixpoint sc in
  ( final,
    cls,
    { sh_sweeps = !sweeps; sh_evals = !evals; sh_removed = size sc - size final }
  )
