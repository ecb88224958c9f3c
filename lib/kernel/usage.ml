type sink = Checked | Returned | Loop_bound | Scratch

type use =
  | Write
  | Read_pointer of { bound_bits : int; escapes : bool }
  | Read_stackptr of { red_bits : int }
  | Read_data of sink

type event = { at : int; reg : Reg.t; use : use }

type t = {
  duration_ns : int;
  events : event array;
  by_reg : event array;
  reg_start : int array;
}

(* a counting sort of the sorted [events] by register: one count pass,
   one fill pass, so each register's run keeps [events] order, ties
   included. One flat array, not one per register: the profiles are
   built at module load, and eight small arrays each moved the web
   benchmark's peak heap. *)
let make ~duration_ns events =
  let events = Array.of_list events in
  let n_regs = Array.length Reg.all in
  let reg_start = Array.make (n_regs + 1) 0 in
  Array.iter
    (fun e ->
      if e.at < 0 || e.at > duration_ns then
        invalid_arg "Usage.make: event offset outside operation window";
      let r = Reg.index e.reg + 1 in
      reg_start.(r) <- reg_start.(r) + 1)
    events;
  for r = 1 to n_regs do
    reg_start.(r) <- reg_start.(r) + reg_start.(r - 1)
  done;
  Array.sort (fun a b -> Int.compare a.at b.at) events;
  let by_reg = Array.copy events in
  let next = Array.sub reg_start 0 n_regs in
  Array.iter
    (fun e ->
      let r = Reg.index e.reg in
      by_reg.(next.(r)) <- e;
      next.(r) <- next.(r) + 1)
    events;
  { duration_ns; events; by_reg; reg_start }

(* Each register's events are already in [at] order, one per stride
   slot, so both arrays are filled directly: [by_reg] register by
   register, [events] slot by slot (ties in register order). *)
let cyclic ~duration_ns ~stride patterns =
  if stride <= 0 then invalid_arg "Usage.cyclic: stride must be positive";
  if duration_ns < 0 then invalid_arg "Usage.cyclic: negative duration";
  let n_regs = Array.length Reg.all in
  let cycles = Array.make n_regs [||] in
  List.iter
    (fun (reg, cycle) ->
      let r = Reg.index reg in
      if Array.length cycles.(r) > 0 then
        invalid_arg "Usage.cyclic: two patterns for one register";
      cycles.(r) <- Array.of_list cycle)
    patterns;
  let slots = (duration_ns / stride) + 1 in
  let reg_start = Array.make (n_regs + 1) 0 in
  for r = 0 to n_regs - 1 do
    reg_start.(r + 1) <- (reg_start.(r) + if Array.length cycles.(r) = 0 then 0 else slots)
  done;
  let none = { at = 0; reg = Reg.EAX; use = Write } in
  let by_reg = Array.make reg_start.(n_regs) none in
  let events = Array.make reg_start.(n_regs) none in
  Array.iteri
    (fun r cycle ->
      let n = Array.length cycle in
      for k = 0 to (if n = 0 then -1 else slots - 1) do
        by_reg.(reg_start.(r) + k) <-
          { at = k * stride; reg = Reg.all.(r); use = cycle.(k mod n) }
      done)
    cycles;
  let i = ref 0 in
  for k = 0 to slots - 1 do
    for r = 0 to n_regs - 1 do
      if Array.length cycles.(r) > 0 then begin
        events.(!i) <- by_reg.(reg_start.(r) + k);
        incr i
      end
    done
  done;
  { duration_ns; events; by_reg; reg_start }

let duration_ns t = t.duration_ns

type verdict =
  | Undetected
  | Failstop of string
  | Segfault
  | Propagated
  | Hang

(* the first index in [lo, hi) of [evs] (sorted by [at] there) whose
   event has [at' >= at], or [hi] if there is none *)
let first_at_or_after evs ~lo ~hi at =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if evs.(mid).at < at then lo := mid + 1 else hi := mid
  done;
  !lo

(* Consequence of a single-event upset, decided by the next access to the
   flipped register (see the .mli for the hardware rationale). *)
let classify t ~reg ~bit ~at =
  let r = Reg.index reg in
  let hi = t.reg_start.(r + 1) in
  let i = first_at_or_after t.by_reg ~lo:t.reg_start.(r) ~hi at in
  if i = hi then Undetected
  else
    match t.by_reg.(i).use with
    | Write -> Undetected
    | Read_pointer { bound_bits; escapes } ->
        if bit >= bound_bits then Failstop "pagefault"
        else if escapes then Propagated
        else Failstop "assert"
    | Read_stackptr { red_bits } ->
        if bit < red_bits then Segfault else Failstop "pagefault"
    | Read_data sink -> (
        match sink with
        | Checked -> Failstop "assert"
        | Returned -> Propagated
        | Loop_bound -> if bit >= 20 then Hang else if bit >= 4 then Failstop "assert" else Undetected
        | Scratch -> Undetected)

let verdict_to_string = function
  | Undetected -> "undetected"
  | Failstop d -> "failstop:" ^ d
  | Segfault -> "segfault"
  | Propagated -> "propagated"
  | Hang -> "hang"

let window ?(start = 0) ~duration_ns ~per_reg ~stride () =
  if stride <= 0 then invalid_arg "Usage.window: stride must be positive";
  let rec go at acc =
    if at > duration_ns then acc
    else
      let here = List.map (fun (reg, use) -> { at; reg; use }) per_reg in
      go (at + stride) (List.rev_append here acc)
  in
  List.rev (go start [])
