(* A fixed reference computation that calls none of the program's code,
   so a change to the repository cannot move its time; the host's speed
   does. On a shared host that speed drifts by tens of percent over
   minutes. Sampled through a run, this kernel's time follows the drift.
   Its two halves are an xorshift loop that stays in registers and a
   loop of short-lived allocations that die in the minor heap. Their sum
   tracked op times better than either half alone or a cache-missing
   walk through a 2 MB array. *)
let kernel () =
  let x = ref 88172645463325252 in
  for _ = 1 to 300_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  let acc = ref !x in
  for i = 1 to 12_000 do
    let l = [ i; i + 1; i + 2; i + 3 ] in
    acc := !acc + List.fold_left ( + ) (Hashtbl.hash (string_of_int i)) l
  done;
  Sys.opaque_identity !acc

(* host ns of one kernel run *)
let sample () =
  let t0 = Ledger.now_ns () in
  ignore (kernel ());
  Ledger.now_ns () - t0

(* The kernel's time on the quiet 2-core Xeon container the baseline was
   measured on. A run's host times are multiplied by
   [nominal_ns / median of its samples]: times as that host would have
   measured them. *)
let nominal_ns = 2.2e6

(* the lower median: of an even count, the smaller middle value, so that
   a value slowed in half the samples or fewer never reads as typical *)
let median samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a.((Array.length a - 1) / 2)

let factor samples = nominal_ns /. float_of_int (median samples)
