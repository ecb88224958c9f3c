(** The paper's published numbers (DSN'16), for side-by-side reporting
    in EXPERIMENTS.md and the benchmark output. *)

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

val table2 : table2_row list
(** Table II, in the paper's order (Sched, MM, FS, Lock, Event, Timer). *)

val fig7_rps : (string * float) list
(** Fig 7 throughput: apache, base, c3, superglue, and the in-text
    superglue-with-faults slowdown converted to requests/second. *)

val fig6c_c3_fs_loc : int
(** The paper's example: the FS component's hand-written C³ stubs were
    ~398 LOC. *)

val avg_idl_loc : int
(** "The average SuperGlue IDL file ... is 37 lines of code". *)

val web_slowdown_pct : float
(** 11.84 *)

val web_slowdown_faults_pct : float
(** 13.6 *)

val modes : (string * Sg_components.Sysbuild.mode) list
(** The system configurations the evaluation compares, by the name every
    CLI's [--mode] takes: base COMPOSITE, hand-written C³ stubs,
    SuperGlue stubs (interpreted, on-demand T1 recovery), the eager
    recovery ablation, and the compiled SuperGlue stubs. *)
