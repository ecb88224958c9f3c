module Sysbuild = Sg_components.Sysbuild
module Tracker = Sg_c3.Tracker

let artifact = Compiler.builtin

let make ~name ?mode artifact =
  {
    Sysbuild.st_name = name;
    st_flavor = Tracker.Superglue;
    st_stubs = Sysbuild.init (fun iface -> Interp.stub ?mode (artifact iface));
  }

let mode = Sysbuild.Stubbed (make ~name:"superglue" artifact)

let mode_eager =
  Sysbuild.Stubbed (make ~name:"superglue-eager" ~mode:`Eager artifact)
