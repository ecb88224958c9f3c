(* The pluggable event sink. Every emission stamps a global sequence
   number, notifies subscribers, and — per the retention policy —
   appends to the in-order log. *)

type retention = All | Recovery

type t = {
  mutable retention : retention;
  mutable next_seq : int;
  mutable log : Event.t list;  (* newest first *)
  mutable log_len : int;
  mutable subscribers : (Event.t -> unit) list;
  mutable folds : (seq:int -> at_ns:int -> tid:int -> Event.kind -> unit) list;
      (* unboxed fan-out: sees every emission without forcing the event
         record to be constructed (the metrics fold and live episode
         stitching attach here) *)
}

let create () =
  {
    retention = Recovery;
    next_seq = 0;
    log = [];
    log_len = 0;
    subscribers = [];
    folds = [];
  }

let retention t = t.retention
let set_retention t r = t.retention <- r
let subscribe t f = t.subscribers <- f :: t.subscribers
let subscribe_fold t f = t.folds <- f :: t.folds

let retains t kind =
  match t.retention with
  | All -> true
  | Recovery -> Event.is_recovery_relevant kind

(* recursive fan-outs rather than [List.iter] over a fresh closure, so
   an emission allocates nothing but what its subscribers do *)
let rec notify e = function
  | [] -> ()
  | f :: rest ->
      f e;
      notify e rest

let rec fold_into ~seq ~at_ns ~tid kind = function
  | [] -> ()
  | f :: rest ->
      f ~seq ~at_ns ~tid kind;
      fold_into ~seq ~at_ns ~tid kind rest

let emit t ~at_ns ~tid kind =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* fast path: the sequence number always advances, but the event record
     is only boxed when someone will actually see it — under the default
     [Recovery] retention the dispatcher hot path emits mostly spans,
     which this drops without allocating *)
  let keep = retains t kind in
  if keep || t.subscribers <> [] then begin
    let e = { Event.seq; at_ns; tid; kind } in
    if keep then begin
      t.log <- e :: t.log;
      t.log_len <- t.log_len + 1
    end;
    notify e t.subscribers
  end;
  fold_into ~seq ~at_ns ~tid kind t.folds

let count t = t.log_len
let events t = List.rev t.log

let clear t =
  t.log <- [];
  t.log_len <- 0
