type t = {
  clock : Clock.t;
  cost : Cost.t;
  threads : Ktcb.t;
  captbl : Captbl.t;
  frames : Frames.t;
}

let create () =
  {
    clock = Clock.create ();
    cost = Cost.default;
    threads = Ktcb.create ();
    captbl = Captbl.create ();
    frames = Frames.create ();
  }

let now t = Clock.now t.clock
let charge t ns = Clock.advance t.clock ns
