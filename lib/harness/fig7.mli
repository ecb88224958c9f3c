(** Driver regenerating Fig 7: web-server throughput for Apache (the
    external reference model), base COMPOSITE, COMPOSITE+C³ and
    COMPOSITE+SuperGlue, the latter two also with one system-service
    crash injected per fault period. *)

type row = {
  w_config : string;
  w_rps : Sg_util.Stats.summary;
  w_slowdown_pct : float;  (** vs the fault-free base *)
  w_faults : int;
  w_reboots : int;
  w_errors : int;
  w_phases : Sg_obs.Profile.phases option;
      (** mean recovery-phase split over the configuration's complete
          episodes; [None] when no fault recovered (e.g. fault-free
          runs, or the Apache reference) *)
}

val run : ?requests:int -> ?reps:int -> unit -> row list
(** Defaults: 50 000 requests and 3 repetitions. {!Sg_web.Abench} keeps
    10 requests in flight (fixed, as in the paper), and the with-faults
    configurations crash one system service every 250 virtual
    milliseconds. *)

val print : ?requests:int -> unit -> unit
(** {!run} with 3 repetitions, as a table. *)
