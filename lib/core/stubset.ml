module Sysbuild = Sg_components.Sysbuild
module Tracker = Sg_c3.Tracker

let artifact = Compiler.builtin

let make ~name ?mode artifact storage =
  {
    Sysbuild.st_name = name;
    st_flavor = Tracker.Superglue;
    st_client =
      (fun ~iface ->
        Interp.client_config ?mode ~storage (artifact iface).Compiler.a_ir);
    st_server =
      (fun ~iface ~wakeup_dep ->
        Interp.server_config ?wakeup_dep (artifact iface).Compiler.a_ir);
  }

let mode = Sysbuild.Stubbed (make ~name:"superglue" artifact)

let mode_eager =
  Sysbuild.Stubbed (make ~name:"superglue-eager" ~mode:`Eager artifact)
