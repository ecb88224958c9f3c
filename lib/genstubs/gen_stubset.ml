(* Wires the compiler-emitted stub modules into a Sysbuild stub set —
   the "generated code" configuration, behaviourally identical to the
   interpreted SuperGlue backend (differentially tested). *)

module Sysbuild = Sg_components.Sysbuild
module Tracker = Sg_c3.Tracker

let stubset =
  let gen client server ~storage ?wakeup_dep () =
    { Sysbuild.server = server ?wakeup_dep (); client = lazy (client ~storage ()) }
  in
  {
    Sysbuild.st_name = "superglue-gen";
    st_flavor = Tracker.Superglue;
    st_stubs =
      {
        sched = gen Sg_gen_sched.client_config Sg_gen_sched.server_config;
        mm = gen Sg_gen_mm.client_config Sg_gen_mm.server_config;
        fs = gen Sg_gen_fs.client_config Sg_gen_fs.server_config;
        lock = gen Sg_gen_lock.client_config Sg_gen_lock.server_config;
        evt = gen Sg_gen_evt.client_config Sg_gen_evt.server_config;
        timer = gen Sg_gen_timer.client_config Sg_gen_timer.server_config;
      };
  }

let mode = Sysbuild.Stubbed stubset
