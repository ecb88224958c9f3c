type table2_row = {
  p_iface : string;
  p_injected : int;
  p_recovered : int;
  p_segfault : int;
  p_propagated : int;
  p_other : int;
  p_undetected : int;
  p_activation_pct : float;
  p_success_pct : float;
}

let row iface injected recovered segfault propagated other undetected act succ =
  {
    p_iface = iface;
    p_injected = injected;
    p_recovered = recovered;
    p_segfault = segfault;
    p_propagated = propagated;
    p_other = other;
    p_undetected = undetected;
    p_activation_pct = act;
    p_success_pct = succ;
  }

(* Table II of the paper. *)
let table2 =
  [
    row "sched" 500 436 54 0 2 9 98.36 88.58;
    row "mm" 500 431 35 1 4 30 94.26 91.48;
    row "fs" 500 455 18 0 0 29 94.70 96.14;
    row "lock" 500 433 33 2 0 31 93.82 92.35;
    row "evt" 500 450 16 2 0 33 93.83 96.00;
    row "timer" 500 460 26 0 0 18 97.23 94.62;
  ]

let fig7_rps =
  [
    ("apache", 17600.0);
    ("base", 16200.0);
    ("c3", 14500.0);
    ("superglue", 14281.0);
    (* the in-text 13.6% slowdown under one crash per 10 s *)
    ("superglue+faults", 16200.0 *. (1.0 -. 0.136));
  ]

let fig6c_c3_fs_loc = 398
let avg_idl_loc = 37
let web_slowdown_pct = 11.84
let web_slowdown_faults_pct = 13.6

let modes =
  [
    ("base", Sg_components.Sysbuild.Base);
    ("c3", Sg_components.Sysbuild.Stubbed Sg_components.Sysbuild.c3_stubset);
    ("superglue", Superglue.Stubset.mode);
    ("superglue-eager", Superglue.Stubset.mode_eager);
    ("superglue-gen", Sg_genstubs.Gen_stubset.mode);
  ]
