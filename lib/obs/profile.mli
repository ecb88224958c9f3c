(** Profiling of stitched {!Episode}s: phase breakdown, critical path,
    and per-component attribution of simulated nanoseconds. Backs the
    [sgtrace profile] subcommand, the opt-in campaign episode profile,
    and the phase columns of the Fig 7 / ablation harnesses. *)

(** {2 Phase breakdown} *)

type phases = {
  ph_detect_reboot_ns : int;
      (** fault detection until the micro-reboot completed *)
  ph_reboot_walks_ns : int;
      (** reboot completion until the first descriptor walk / recover-all
          chain started (on-demand recovery wait) *)
  ph_walks_access_ns : int;
      (** first walk until the first successful post-reboot invocation *)
}

val phases : Episode.t -> phases
(** Measured on the episode's own clock and clamped so the three phases
    always sum exactly to {!Episode.span_ns}. Episodes with no walks
    charge the post-reboot wait to [ph_reboot_walks_ns]; episodes with
    no reboot charge everything to [ph_detect_reboot_ns]. *)

val phases_total : phases -> int

(** {2 Critical path} *)

val critical_path : Episode.t -> Episode.node list
(** Longest dependent chain by summed activity duration, in causal
    order. Single forward pass over [ep_nodes] (topologically sorted by
    construction). *)

val critical_path_ns : Episode.t -> int

(** {2 Per-component attribution} *)

type attr = {
  at_cid : int;
  at_reboot_ns : int;
      (** micro-reboot cost charged to the rebooted component
          ([image_kb * Cost.reboot_ns_per_kb], as emitted by the
          simulator) *)
  at_walk_ns : int;
      (** walk + recover-all durations charged to the client on whose
          time account recovery ran (includes nested replay spans) *)
  at_span_ns : int;  (** replay spans into the rebooted server *)
  at_crashes : int;
}

val attr_total : attr -> int

val attribution : Episode.t list -> attr list
(** Sorted by total charged time, descending (ties by cid). *)

(** {2 Aggregate phase summary} *)

type phase_summary = {
  ps_episodes : int;
  ps_complete : int;
  ps_detect_reboot : Hist.t;
  ps_reboot_walks : Hist.t;
  ps_walks_access : Hist.t;
  ps_span : Hist.t;
}

val summarize : Episode.t list -> phase_summary
(** Histograms cover complete episodes only. *)

val mean_phases_ns : Episode.t list -> phases option
(** Mean phase split of the complete episodes; [None] when there are
    none. *)

(** {2 Reporting} *)

val pp : Format.formatter -> Episode.t list -> unit
(** Per-episode ASCII timeline + critical path, then phase histograms
    and the attribution table. *)

val json_version : int

val to_json : ?source:string -> Episode.t list -> Sg_util.Json.t
(** The machine-readable profile: an [sg-profile] report of version
    {!json_version}. *)
