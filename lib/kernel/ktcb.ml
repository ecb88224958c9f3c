type tid = int

type tstate =
  | Runnable
  | Blocked of { in_component : int }
  | Sleeping of { until_ns : int; in_component : int }
  | Exited

type tcb = {
  tid : tid;
  name : string;
  mutable prio : int;
  mutable state : tstate;
  regs : Regfile.t;
  mutable stack : int list;
  mutable divert : int option;
}

type t = {
  mutable next_tid : int;
  mutable order : tcb array;
      (* threads in spawn (= ascending tid) order, in [0, n): tids are
         dense from 1, so tid [k] is [order.(k - 1)]; threads are never
         removed, so this is maintained by appending — no per-query
         fold-and-sort and no hashing *)
  mutable n : int;
}

let create () = { next_tid = 1; order = [||]; n = 0 }

let spawn t ~name ~prio ~home =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let tcb =
    {
      tid;
      name;
      prio;
      state = Runnable;
      regs = Regfile.create ();
      stack = [ home ];
      divert = None;
    }
  in
  if t.n = Array.length t.order then begin
    let cap = max 16 (2 * t.n) in
    let order = Array.make cap tcb in
    Array.blit t.order 0 order 0 t.n;
    t.order <- order
  end;
  t.order.(t.n) <- tcb;
  t.n <- t.n + 1;
  tcb

let find t tid = if tid >= 1 && tid <= t.n then Some t.order.(tid - 1) else None

let find_exn t tid =
  match find t tid with
  | Some tcb -> tcb
  | None -> invalid_arg (Printf.sprintf "Ktcb.find_exn: unknown tid %d" tid)

let exit_thread t tid =
  match find t tid with Some tcb -> tcb.state <- Exited | None -> ()

let iter t f =
  for i = 0 to t.n - 1 do
    f t.order.(i)
  done

(* collect matching threads in tid order without an intermediate list *)
let filter_threads t p =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    let tcb = t.order.(i) in
    if p tcb then acc := tcb :: !acc
  done;
  !acc

let all t = filter_threads t (fun _ -> true)

let enter_component tcb cid = tcb.stack <- cid :: tcb.stack

let leave_component tcb =
  match tcb.stack with
  | [] -> invalid_arg "Ktcb.leave_component: empty invocation stack"
  | _ :: rest -> tcb.stack <- rest

let current_component tcb =
  match tcb.stack with [] -> None | cid :: _ -> Some cid

let executing_in t cid =
  filter_threads t (fun tcb ->
      tcb.state <> Exited && current_component tcb = Some cid)

let in_stack tcb cid = List.mem cid tcb.stack

let threads_inside t cid =
  filter_threads t (fun tcb -> tcb.state <> Exited && in_stack tcb cid)

let blocked_in t cid =
  filter_threads t (fun tcb ->
      match tcb.state with
      | Blocked { in_component } | Sleeping { in_component; _ } ->
          in_component = cid
      | Runnable | Exited -> false)

let runnable t =
  filter_threads t (fun tcb -> tcb.state = Runnable)
  |> List.stable_sort (fun a b -> compare a.prio b.prio)

let sleepers t =
  filter_threads t (fun tcb ->
      match tcb.state with Sleeping _ -> true | _ -> false)

let count t = t.n
