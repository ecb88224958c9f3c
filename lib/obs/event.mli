(** Structured observability events.

    Component ids and thread ids are plain ints here: [sg_obs] sits
    below [sg_os] (the simulator emits into it), so it cannot depend on
    the simulator's types. *)

type reason =
  | Demand  (** T1: walk triggered by the call touching the descriptor *)
  | Eager  (** T0: walk performed by a recover-all episode at fault time *)
  | Dep  (** walk of a parent/sibling required by another walk (D0/D1) *)
  | Upcall_driven  (** walk driven through a recovery upcall (U0/G0) *)

val reason_to_string : reason -> string
val reason_of_string : string -> reason option

type kind =
  | Span_begin of { span : int; client : int; server : int; fn : string }
      (** a synchronous invocation entered the server *)
  | Span_end of { span : int; server : int; ok : bool }
      (** the invocation returned ([ok]) or unwound on an exception *)
  | Crash of { cid : int; detector : string }  (** fault detected *)
  | Reboot of { cid : int; epoch : int; image_kb : int; cost_ns : int }
  | Divert of { cid : int; victim : int }
      (** thread [victim] was flagged to unwind out of rebooted [cid] *)
  | Upcall of { cid : int; fn : string }
  | Reflect of { cid : int; fn : string }
  | Walk_begin of {
      client : int;
      server : int;
      iface : string;
      desc : int;
      reason : reason;
    }  (** descriptor recovery walk (R0) *)
  | Walk_end of { client : int; server : int; ok : bool }
      (** [ok = false]: interrupted by a fresh fault and restarted *)
  | Recover_begin of { client : int; server : int; iface : string }
      (** eager recover-all episode (T0) *)
  | Recover_end of { client : int; server : int }
  | Storage_op of { op : string; space : string; id : int }
  | Inject of {
      cid : int;
      fn : string;
      reg : string;
      bit : int;
      outcome : string;
    }  (** SWIFI bit-flip activated, with its classified outcome *)
  | Http of { cid : int; path : string; status : int }
  | Http_req of {
      cid : int;  (** the serving (http) component *)
      client : int;  (** simulated client id, open-loop population *)
      arrival_ns : int;  (** virtual arrival instant (open-loop offered) *)
      start_ns : int;  (** dequeued: service began *)
      finish_ns : int;  (** response done ([= start_ns] for drops) *)
      status : int;  (** HTTP status; 0 when no response was produced *)
      outcome : string;  (** "ok", "error", "dropped" or "failed" *)
    }
      (** one open-loop request span, emitted at finish time; the
          latency attributed to the request is [finish_ns - arrival_ns]
          (sojourn: queueing + service) *)
  | Perturb of { iface : string; fn : string; action : string; in_walk : bool }
      (** an interface adversary fired on an invocation of [iface.fn];
          [in_walk = true] when the perturbed invocation was a
          recovery-walk replay rather than a live client call. Distinct
          from [Inject] so [Episode] crash-trigger attribution stays
          exact. *)
  | Note of { name : string; data : string }  (** free-form annotation *)

type t = { seq : int; at_ns : int; tid : int; kind : kind }

val kind_name : kind -> string

val is_recovery_relevant : kind -> bool
(** The kinds retained under the [Recovery] retention policy. *)

val pp : Format.formatter -> t -> unit
