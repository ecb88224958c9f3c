let now_ns () = Int64.to_int (Monotonic_clock.now ())

type rec_span = {
  id : int;
  name : string;
  source : string;
  reprobe : bool;
  op : int;
  parent : int;  (** -1 for a root *)
  start_ns : int;
  end_ns : int;
  self_ns : int;
}

(* an open span: its id and the time its closed children cover *)
type frame = { f_id : int; mutable f_child_ns : int }

let on = ref false
let recorded : rec_span list ref = ref []
let next_id = ref 0
let stack : frame list ref = ref []
let cur_op = ref (-1)
let cur_source = ref "own"
let cur_reprobe = ref false
let last_by_name : (string, int) Hashtbl.t = Hashtbl.create 32
let counters : (string * string, int ref) Hashtbl.t = Hashtbl.create 32
let set_on b = on := b
let is_on () = !on

(* Children run strictly inside their parent on one thread, one after
   another, so the time they cover is the sum of their durations. *)
let record ~name ~parent f =
  let id = !next_id in
  incr next_id;
  let frame = { f_id = id; f_child_ns = 0 } in
  let outer = !stack in
  stack := frame :: outer;
  let start_ns = now_ns () in
  let close () =
    let end_ns = now_ns () in
    stack := outer;
    let dur = end_ns - start_ns in
    (match outer with p :: _ -> p.f_child_ns <- p.f_child_ns + dur | [] -> ());
    Hashtbl.replace last_by_name name id;
    recorded :=
      {
        id;
        name;
        source = !cur_source;
        reprobe = !cur_reprobe;
        op = !cur_op;
        parent;
        start_ns;
        end_ns;
        self_ns = dur - frame.f_child_ns;
      }
      :: !recorded
  in
  Fun.protect ~finally:close f

let span name f =
  if not !on then f ()
  else
    let parent = match !stack with p :: _ -> p.f_id | [] -> -1 in
    record ~name ~parent f

let op ?(source = "own") k f =
  if not !on then f ()
  else begin
    cur_op := k;
    cur_source := source;
    record ~name:"op" ~parent:(-1) f
  end

(* a root span outside the current op's time, in its own context *)
let detached ~source ~reprobe ~op ~parent name f =
  let saved = (!cur_source, !cur_reprobe, !cur_op, !stack) in
  cur_source := source;
  cur_reprobe := reprobe;
  cur_op := op;
  stack := [];
  Fun.protect
    ~finally:(fun () ->
      let s, r, o, st = saved in
      cur_source := s;
      cur_reprobe := r;
      cur_op := o;
      stack := st)
    (fun () -> record ~name ~parent f)

let reprobe ~parent name f =
  if not !on then f ()
  else
    let parent = Option.value ~default:(-1) (Hashtbl.find_opt last_by_name parent) in
    detached ~source:!cur_source ~reprobe:true ~op:!cur_op ~parent name f

let probe name f =
  if not !on then f ()
  else detached ~source:"probe" ~reprobe:false ~op:(-1) ~parent:(-1) name f

let count name v =
  if !on then
    match Hashtbl.find_opt counters (!cur_source, name) with
    | Some r -> r := !r + v
    | None -> Hashtbl.replace counters (!cur_source, name) (ref v)

let counter ~source name =
  match Hashtbl.find_opt counters (source, name) with Some r -> !r | None -> 0

type layer = { l_calls : int; l_total_ns : int; l_self_ns : int }

let layers ~source =
  let acc : (string, layer) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      if s.source = source then
        let l =
          Option.value (Hashtbl.find_opt acc s.name)
            ~default:{ l_calls = 0; l_total_ns = 0; l_self_ns = 0 }
        in
        Hashtbl.replace acc s.name
          {
            l_calls = l.l_calls + 1;
            l_total_ns = l.l_total_ns + (s.end_ns - s.start_ns);
            l_self_ns = l.l_self_ns + s.self_ns;
          })
    !recorded;
  Hashtbl.fold (fun n l ls -> (n, l) :: ls) acc []
  |> List.sort (fun (na, a) (nb, b) -> compare (b.l_self_ns, na) (a.l_self_ns, nb))

let dump path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"source\":\"%s\",\"reprobe\":%b,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.name s.source s.reprobe s.op s.parent s.start_ns s.end_ns)
    (List.rev !recorded);
  close_out oc
