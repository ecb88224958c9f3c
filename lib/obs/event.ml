type reason = Demand | Eager | Dep | Upcall_driven

let reason_to_string = function
  | Demand -> "demand"
  | Eager -> "eager"
  | Dep -> "dep"
  | Upcall_driven -> "upcall"

let reason_of_string = function
  | "demand" -> Some Demand
  | "eager" -> Some Eager
  | "dep" -> Some Dep
  | "upcall" -> Some Upcall_driven
  | _ -> None

type kind =
  | Span_begin of { span : int; client : int; server : int; fn : string }
  | Span_end of { span : int; server : int; ok : bool }
  | Crash of { cid : int; detector : string }
  | Reboot of { cid : int; epoch : int; image_kb : int; cost_ns : int }
  | Divert of { cid : int; victim : int }
  | Upcall of { cid : int; fn : string }
  | Reflect of { cid : int; fn : string }
  | Walk_begin of {
      client : int;
      server : int;
      iface : string;
      desc : int;
      reason : reason;
    }
  | Walk_end of { client : int; server : int; ok : bool }
  | Recover_begin of { client : int; server : int; iface : string }
  | Recover_end of { client : int; server : int }
  | Storage_op of { op : string; space : string; id : int }
  | Inject of {
      cid : int;
      fn : string;
      reg : string;
      bit : int;
      outcome : string;
    }
  | Http of { cid : int; path : string; status : int }
  | Http_req of {
      cid : int;
      client : int;
      arrival_ns : int;
      start_ns : int;
      finish_ns : int;
      status : int;
      outcome : string;
    }
  | Perturb of { iface : string; fn : string; action : string; in_walk : bool }
  | Note of { name : string; data : string }

type t = { seq : int; at_ns : int; tid : int; kind : kind }

let kind_name = function
  | Span_begin _ -> "span_begin"
  | Span_end _ -> "span_end"
  | Crash _ -> "crash"
  | Reboot _ -> "reboot"
  | Divert _ -> "divert"
  | Upcall _ -> "upcall"
  | Reflect _ -> "reflect"
  | Walk_begin _ -> "walk_begin"
  | Walk_end _ -> "walk_end"
  | Recover_begin _ -> "recover_begin"
  | Recover_end _ -> "recover_end"
  | Storage_op _ -> "storage_op"
  | Inject _ -> "inject"
  | Http _ -> "http"
  | Http_req _ -> "http_req"
  | Perturb _ -> "perturb"
  | Note _ -> "note"

(* the wider "recovery relevant" set retained by default: everything a
   fault-tolerance post-mortem needs, but none of the per-operation
   event flood (spans, storage ops, http) of a long benchmark run *)
let is_recovery_relevant = function
  | Crash _ | Reboot _ | Divert _ | Upcall _ | Walk_begin _ | Walk_end _
  | Recover_begin _ | Recover_end _ | Inject _ | Perturb _ ->
      true
  | Span_begin _ | Span_end _ | Reflect _ | Storage_op _ | Http _ | Http_req _
  | Note _ ->
      false

let pp ppf e =
  let k =
    match e.kind with
    | Span_begin { span; client; server; fn } ->
        Printf.sprintf "span %d begin %d->%d %s" span client server fn
    | Span_end { span; server; ok } ->
        Printf.sprintf "span %d end server=%d %s" span server
          (if ok then "ok" else "fault")
    | Crash { cid; detector } ->
        Printf.sprintf "component %d: fault detected (%s)" cid detector
    | Reboot { cid; epoch; image_kb; cost_ns } ->
        Printf.sprintf "component %d: micro-reboot (epoch %d, %d kB, %d ns)"
          cid epoch image_kb cost_ns
    | Divert { cid; victim } ->
        Printf.sprintf "component %d: divert thread %d" cid victim
    | Upcall { cid; fn } -> Printf.sprintf "component %d: upcall %s" cid fn
    | Reflect { cid; fn } -> Printf.sprintf "component %d: reflect %s" cid fn
    | Walk_begin { client; server; iface; desc; reason } ->
        Printf.sprintf "walk begin %d->%d %s desc=%d (%s)" client server iface
          desc (reason_to_string reason)
    | Walk_end { client; server; ok } ->
        Printf.sprintf "walk end %d->%d %s" client server
          (if ok then "ok" else "interrupted")
    | Recover_begin { client; server; iface } ->
        Printf.sprintf "recover-all begin %d->%d %s" client server iface
    | Recover_end { client; server } ->
        Printf.sprintf "recover-all end %d->%d" client server
    | Storage_op { op; space; id } ->
        Printf.sprintf "storage %s %s/%d" op space id
    | Inject { cid; fn; reg; bit; outcome } ->
        Printf.sprintf "inject component %d %s %s bit %d -> %s" cid fn reg bit
          outcome
    | Http { cid; path; status } ->
        Printf.sprintf "http component %d %s -> %d" cid path status
    | Http_req { cid; client; arrival_ns; start_ns; finish_ns; status; outcome }
      ->
        Printf.sprintf
          "http_req component %d client %d arrive=%d start=%d finish=%d -> %d \
           (%s)"
          cid client arrival_ns start_ns finish_ns status outcome
    | Perturb { iface; fn; action; in_walk } ->
        Printf.sprintf "perturb %s.%s %s%s" iface fn action
          (if in_walk then " (in walk)" else "")
    | Note { name; data } -> Printf.sprintf "note %s: %s" name data
  in
  Format.fprintf ppf "[%8d ns] #%d tid=%d %s" e.at_ns e.seq e.tid k
