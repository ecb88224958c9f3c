type fn = {
  fn_params : Ast.param list;
  fn_desc : int option;
  fn_parent : int option;
  fn_ns : int option;
  fn_create : bool;
  fn_terminal : bool;
  fn_virtual_create : bool;
  fn_after : Machine.state;
  fn_meta : (int * string) list;
  fn_retval : Ast.retval_annot option;
  fn_from : Machine.state list;
}

type t = { fns : (string * fn) list }

(* Fault-detection counters (invalid state-machine transitions), keyed
   by interface name: a counter is process state, so it is not part of
   the (static) plan. The table is only touched under [counters_lock];
   stubs on any pool domain bump the [Atomic]. *)
let counters : (string, int Atomic.t) Hashtbl.t = Hashtbl.create 8
let counters_lock = Mutex.create ()

(* no allocation once the name has its counter: a stub looks its
   counter up on every invalid transition *)
let counter iface =
  Mutex.lock counters_lock;
  let c =
    match Hashtbl.find counters iface with
    | c -> c
    | exception Not_found ->
        let c = Atomic.make 0 in
        Hashtbl.replace counters iface c;
        c
  in
  Mutex.unlock counters_lock;
  c

let build ir machine =
  let fns =
    List.fold_left
      (fun fns (f : Ir.func) ->
        let name = f.Ir.f_name in
        if List.mem_assoc name fns then fns
        else
          let desc = Ir.desc_arg_index ir name in
          let create = Ir.is_create ir name in
          let meta =
            List.concat
              (List.mapi
                 (fun i p ->
                   match p.Ast.pa_attr with
                   | Ast.ADescData | Ast.ADescDataParent | Ast.ADescNs ->
                       [ (i, p.Ast.pa_name) ]
                   | Ast.APlain | Ast.ADesc | Ast.AParentDesc -> [])
                 f.Ir.f_params)
          in
          ( name,
            {
              fn_params = f.Ir.f_params;
              fn_desc = desc;
              fn_parent = Ir.parent_arg_index f;
              fn_ns = Ir.ns_arg_index f;
              fn_create = create;
              fn_terminal = Ir.is_terminal ir name;
              (* local descriptors with server-assigned ids are
                 virtualized; global ones keep the server's
                 (storage-reseeded) ids *)
              fn_virtual_create =
                (not ir.Ir.ir_model.Model.global)
                && create && Option.is_none desc;
              fn_after = Machine.after name;
              fn_meta = meta;
              fn_retval = f.Ir.f_retval;
              fn_from = Machine.sources machine name;
            } )
          :: fns)
      [] ir.Ir.ir_funcs
  in
  { fns = List.rev fns }

(* [List.assoc] with [String.equal]: a declared function is one of a
   dozen *)
let rec lookup name = function
  | [] -> None
  | (k, p) :: rest -> if String.equal k name then Some p else lookup name rest

let find t fn = lookup fn t.fns

(* Callers pass function names as literals, so the same name is almost
   always the same physical string: a few slots compared with [==] answer
   alternating calls ([lock_take], [lock_release], ...) without hashing
   the name. A miss looks the name up and takes the next slot in turn. *)
let memo_slots = 8

let finder t =
  let names = Array.make memo_slots "" and plans = Array.make memo_slots None in
  let next = ref 0 in
  let rec probe fn i =
    if i = memo_slots then begin
      let p = find t fn in
      names.(!next) <- fn;
      plans.(!next) <- p;
      next := (!next + 1) land (memo_slots - 1);
      p
    end
    else if names.(i) == fn then plans.(i)
    else probe fn (i + 1)
  in
  fun fn -> probe fn 0

let find_exn t fn =
  match find t fn with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Ir: unknown function %s" fn)
