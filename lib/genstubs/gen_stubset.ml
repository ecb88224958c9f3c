(* Wires the compiler-emitted stub modules into a Sysbuild stub set —
   the "generated code" configuration, behaviourally identical to the
   interpreted SuperGlue backend (differentially tested). *)

module Sysbuild = Sg_components.Sysbuild
module Tracker = Sg_c3.Tracker

let stubset =
  {
    Sysbuild.st_name = "superglue-gen";
    st_flavor = Tracker.Superglue;
    st_stubs =
      {
        sched =
          { client = Sg_gen_sched.client_config; server = Sg_gen_sched.server_config };
        mm = { client = Sg_gen_mm.client_config; server = Sg_gen_mm.server_config };
        fs = { client = Sg_gen_fs.client_config; server = Sg_gen_fs.server_config };
        lock = { client = Sg_gen_lock.client_config; server = Sg_gen_lock.server_config };
        evt = { client = Sg_gen_evt.client_config; server = Sg_gen_evt.server_config };
        timer =
          { client = Sg_gen_timer.client_config; server = Sg_gen_timer.server_config };
      };
  }

let mode = Sysbuild.Stubbed stubset
