(** The componentized web server (paper §V-E).

    An application-level HTTP server installed on top of the six system
    services, system- and I/O-intensive so that the holistic cost of the
    recovery infrastructure shows up in throughput. Per request the
    server: parses the HTTP request, serializes on the cache lock, reads
    the document through the RAM file system, notifies an asynchronous
    logger component through the (global) event service, periodically
    recycles response buffer pages through the memory manager, and runs
    a stats thread on the timer manager — "a web server that makes use
    of all system-level components".

    In the base configuration a fault in any of those services takes the
    server down; with C³ or SuperGlue stubs wired by
    {!Sg_components.Sysbuild}, recovery proceeds in parallel with
    continued operation. *)

type t = {
  ws_http : Sg_os.Comp.cid;
  ws_logger : Sg_os.Comp.cid;
  ws_served : int ref;  (** requests answered (any status) *)
  ws_logged : int ref;  (** log notifications delivered *)
  ws_stats_ticks : int ref;  (** periodic stats-thread wakeups *)
  ws_ready : bool ref;  (** documents seeded, logger event live *)
  ws_stop : bool ref;
  ws_log_evt : int option ref;
  ws_timeline : (int * int) list ref;
      (** (virtual ns, requests served so far), sampled every stats tick
          (10 virtual ms) — the data behind the Fig 7 timeline *)
}

val install : Sg_components.Sysbuild.system -> t
(** Register the server components, seed the file system with one
    ~1 KiB [/index.html], and start the logger and stats threads. Each
    request also charges 49 µs of application compute (network stack,
    parsing, copying) outside the system services, calibrated so the
    fault-free base configuration serves ≈16 200 requests/second (paper
    Fig 7). *)

val stop : Sg_components.Sysbuild.system -> t -> unit
(** Ask the logger and stats threads to exit (lets the run drain). *)

val wait_ready : t -> Sg_os.Sim.t -> unit
(** Yield until the server is open for requests. *)

val crash_rotation :
  Sg_components.Sysbuild.system ->
  name:string -> period_ns:int -> stop:(unit -> bool) -> faults:int ref -> unit
(** Spawn SWIFI thread [name]: every [period_ns] until [stop ()], it
    fail-stops the next system service in the paper's order and counts
    it in [faults]. *)
