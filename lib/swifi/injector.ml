module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Usage = Sg_kernel.Usage
module Reg = Sg_kernel.Reg
module Regfile = Sg_kernel.Regfile
module Ktcb = Sg_kernel.Ktcb
module Rng = Sg_util.Rng

type outcome = O_undetected | O_failstop | O_segfault | O_propagated | O_hang

type t = {
  target : Comp.cid;
  period_ns : int;
  max_injections : int;
  cmon_period_ns : int option;
  rng : Rng.t;
  mutable next_at : int;
  mutable n_injected : int;
}

let create ?cmon_period_ns ~target ~period_ns ~max_injections ~rng () =
  {
    target;
    period_ns;
    max_injections;
    cmon_period_ns;
    rng;
    next_at = period_ns;
    n_injected = 0;
  }

let injected t = t.n_injected

let outcome_of_verdict = function
  | Usage.Undetected -> O_undetected
  | Usage.Failstop _ -> O_failstop
  | Usage.Segfault -> O_segfault
  | Usage.Propagated -> O_propagated
  | Usage.Hang -> O_hang

let outcome_to_string = function
  | O_undetected -> "undetected"
  | O_failstop -> "failstop"
  | O_segfault -> "segfault"
  | O_propagated -> "propagated"
  | O_hang -> "hang"

(* The flip itself, factored out so plan-driven campaigns (Sg_dst) can
   apply a *chosen* (reg, bit, at) flip at a chosen dispatch instead of
   drawing one — same register-file mutation, same classification, same
   [Inject] event, same fault exceptions. The [Inject] event is the one
   record of a flip. [cmon_slack] is forced lazily, only on the Hang
   path, so the periodic injector's Rng draw order is untouched. *)
let apply_flip sim ~cid ~fn ~reg ~bit ~at ?cmon () =
  match Sim.usage_of sim cid fn with
  | None -> ()
  | Some usage ->
      let tcb = Sim.current_tcb sim in
      Regfile.flip_bit tcb.Ktcb.regs reg bit;
      let verdict = Usage.classify usage ~reg ~bit ~at in
      Sim.emit sim
        (Sg_obs.Event.Inject
           {
             cid;
             fn;
             reg = Reg.to_string reg;
             bit;
             outcome = outcome_to_string (outcome_of_verdict verdict);
           });
      (match verdict with
      | Usage.Undetected -> ()
      | Usage.Failstop detector ->
          Sim.mark_failed sim cid ~detector;
          raise (Comp.Crash { cid; detector })
      | Usage.Segfault -> raise (Comp.Sys_segfault { cid })
      | Usage.Propagated -> raise (Comp.Sys_propagated { cid })
      | Usage.Hang -> (
          match cmon with
          | None -> raise (Comp.Sys_hang { cid })
          | Some cmon_slack ->
              (* the thread spins until the execution-time budget is
                 overrun and the monitor's next sample catches it *)
              let budget = 2 * Usage.duration_ns usage in
              Sim.charge sim (budget + cmon_slack ());
              Sim.mark_failed sim cid ~detector:"cmon-latent";
              raise (Comp.Crash { cid; detector = "cmon-latent" })))

let hook t sim cid fn =
  if
    cid = t.target
    && t.n_injected < t.max_injections
    && Sim.now sim >= t.next_at
  then
    match Sim.usage_of sim cid fn with
    | None -> ()
    | Some usage ->
        t.n_injected <- t.n_injected + 1;
        t.next_at <- Sim.now sim + t.period_ns;
        (* flip a random bit of a random register of the executing
           thread, at a random point within the operation's window *)
        let reg = Rng.choose t.rng Reg.all in
        let bit = Rng.int t.rng 32 in
        let at = Rng.int t.rng (Usage.duration_ns usage + 1) in
        let cmon =
          Option.map
            (fun monitor_period () -> Rng.int t.rng monitor_period)
            t.cmon_period_ns
        in
        apply_flip sim ~cid ~fn ~reg ~bit ~at ?cmon ()

let install sim t = Sim.set_on_dispatch sim (Some (fun sim cid fn -> hook t sim cid fn))
