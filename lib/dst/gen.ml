(* Seed-deterministic operation-sequence generation (DESIGN.md §3.9).

   Every draw comes from the explicit [Rng.t] the caller passes, in one
   fixed left-to-right order, so a sequence is a pure function of
   (mix, seed): the replay artifact only needs the seed. All mix knobs
   are integer weights — the artifact carrier ({!Sg_util.Json}) has
   no floats, and integer weights compare exactly across platforms. *)

module Rng = Sg_util.Rng
module Sysbuild = Sg_components.Sysbuild

type op =
  | Sched_pingpong of { rounds : int }
  | Mm_cycle of { fanout : int }
  | Fs_open of { path : int }
  | Fs_write of { path : int; byte : int }
  | Fs_read of { path : int }
  | Fs_close of { path : int }
  | Lock_cycle of { cycles : int; holds : int }
  | Evt_chain of { triggers : int }
  | Timer_tick of { periods : int; period_ns : int }
  | Desc_burst of { count : int }
  | Restart of { service : string }

type mix = {
  mx_weights : int Sysbuild.services;
  mx_burst : int;
  mx_restart : int;
  mx_paths : int;  (* RamFS path-pool size: smaller = more collisions *)
  mx_contention : int;  (* upper bound on lock hold length (yields) *)
}

let default_mix =
  {
    mx_weights =
      { Sysbuild.sched = 10; mm = 10; fs = 14; lock = 10; evt = 10; timer = 6 };
    mx_burst = 4;
    mx_restart = 4;
    mx_paths = 2;
    mx_contention = 3;
  }

(* a mix concentrated on one service, for targeted (mutant-hunting)
   campaigns: the named service keeps its weight, the others drop to a
   trickle so cross-service interactions still occur *)
let focus_mix iface =
  {
    default_mix with
    mx_weights = Sysbuild.init (fun name -> if name = iface then 30 else 2);
    mx_burst = (if iface = "fs" then 8 else 1);
    mx_restart = 2;
  }

let path_name i = Printf.sprintf "f%d" i

let timer_periods = [| 50_000; 100_000; 200_000; 400_000 |]
let service_names = Array.of_list Sysbuild.names

(* each service's op, drawn once its category is picked *)
let service_ops mix =
  let paths = max 1 mix.mx_paths in
  {
    Sysbuild.sched = (fun rng -> Sched_pingpong { rounds = 1 + Rng.int rng 3 });
    mm = (fun rng -> Mm_cycle { fanout = 1 + Rng.int rng 2 });
    fs =
      (fun rng ->
        (* open/write/read/close with writes and reads dominating *)
        match Rng.int rng 8 with
        | 0 -> Fs_open { path = Rng.int rng paths }
        | 1 -> Fs_close { path = Rng.int rng paths }
        | 2 | 3 | 4 ->
            Fs_write { path = Rng.int rng paths; byte = Rng.int rng 26 }
        | _ -> Fs_read { path = Rng.int rng paths });
    lock =
      (fun rng ->
        Lock_cycle
          {
            cycles = 1 + Rng.int rng 3;
            holds = Rng.int rng (max 1 mix.mx_contention);
          });
    evt = (fun rng -> Evt_chain { triggers = 1 + Rng.int rng 3 });
    timer =
      (fun rng ->
        Timer_tick
          {
            periods = 1 + Rng.int rng 3;
            period_ns = Rng.choose rng timer_periods;
          });
  }

(* The categories in draw order, the six services in the paper's order
   then bursts and restarts, each with its weight: one draw picks a
   category, then its op draws its fields. *)
let categories mix =
  Array.of_list
    (List.map2
       (fun (_, w) (_, op) -> (w, op))
       (Sysbuild.to_list mix.mx_weights)
       (Sysbuild.to_list (service_ops mix))
    @ [
        (mix.mx_burst, fun rng -> Desc_burst { count = 1 + Rng.int rng 4 });
        ( mix.mx_restart,
          fun rng -> Restart { service = Rng.choose rng service_names } );
      ])

let generate ~mix rng ~len =
  let cats = categories mix in
  List.init len (fun _ -> Rng.weighted rng cats rng)

let op_service = function
  | Sched_pingpong _ -> "sched"
  | Mm_cycle _ -> "mm"
  | Fs_open _ | Fs_write _ | Fs_read _ | Fs_close _ | Desc_burst _ -> "fs"
  | Lock_cycle _ -> "lock"
  | Evt_chain _ -> "evt"
  | Timer_tick _ -> "timer"
  | Restart { service } -> service

let services ops =
  List.sort_uniq compare (List.map op_service ops)

let op_label = function
  | Sched_pingpong { rounds } -> Printf.sprintf "sched_pingpong(%d)" rounds
  | Mm_cycle { fanout } -> Printf.sprintf "mm_cycle(%d)" fanout
  | Fs_open { path } -> Printf.sprintf "fs_open(%s)" (path_name path)
  | Fs_write { path; byte } ->
      Printf.sprintf "fs_write(%s,%d)" (path_name path) byte
  | Fs_read { path } -> Printf.sprintf "fs_read(%s)" (path_name path)
  | Fs_close { path } -> Printf.sprintf "fs_close(%s)" (path_name path)
  | Lock_cycle { cycles; holds } -> Printf.sprintf "lock_cycle(%d,%d)" cycles holds
  | Evt_chain { triggers } -> Printf.sprintf "evt_chain(%d)" triggers
  | Timer_tick { periods; period_ns } ->
      Printf.sprintf "timer_tick(%d,%d)" periods period_ns
  | Desc_burst { count } -> Printf.sprintf "desc_burst(%d)" count
  | Restart { service } -> Printf.sprintf "restart(%s)" service

(* ---------- JSON (replay artifacts) ---------- *)

module Json = Sg_util.Json

let op_to_json op =
  let o name fields = Json.Obj (("op", Json.Str name) :: fields) in
  match op with
  | Sched_pingpong { rounds } -> o "sched_pingpong" [ ("rounds", Json.Int rounds) ]
  | Mm_cycle { fanout } -> o "mm_cycle" [ ("fanout", Json.Int fanout) ]
  | Fs_open { path } -> o "fs_open" [ ("path", Json.Int path) ]
  | Fs_write { path; byte } ->
      o "fs_write" [ ("path", Json.Int path); ("byte", Json.Int byte) ]
  | Fs_read { path } -> o "fs_read" [ ("path", Json.Int path) ]
  | Fs_close { path } -> o "fs_close" [ ("path", Json.Int path) ]
  | Lock_cycle { cycles; holds } ->
      o "lock_cycle" [ ("cycles", Json.Int cycles); ("holds", Json.Int holds) ]
  | Evt_chain { triggers } -> o "evt_chain" [ ("triggers", Json.Int triggers) ]
  | Timer_tick { periods; period_ns } ->
      o "timer_tick"
        [ ("periods", Json.Int periods); ("period_ns", Json.Int period_ns) ]
  | Desc_burst { count } -> o "desc_burst" [ ("count", Json.Int count) ]
  | Restart { service } -> o "restart" [ ("service", Json.Str service) ]

let service_of_json j field =
  let name = Json.get_str j field in
  if not (List.mem name Sysbuild.names) then Json.fail "unknown service %s" name;
  name

let op_of_json j =
  let get_int = Json.get_int in
  match Json.member "op" j with
  | Some (Json.Str name) -> (
      match name with
      | "sched_pingpong" -> Sched_pingpong { rounds = get_int j "rounds" }
      | "mm_cycle" -> Mm_cycle { fanout = get_int j "fanout" }
      | "fs_open" -> Fs_open { path = get_int j "path" }
      | "fs_write" ->
          Fs_write { path = get_int j "path"; byte = get_int j "byte" }
      | "fs_read" -> Fs_read { path = get_int j "path" }
      | "fs_close" -> Fs_close { path = get_int j "path" }
      | "lock_cycle" ->
          Lock_cycle { cycles = get_int j "cycles"; holds = get_int j "holds" }
      | "evt_chain" -> Evt_chain { triggers = get_int j "triggers" }
      | "timer_tick" ->
          Timer_tick
            { periods = get_int j "periods"; period_ns = get_int j "period_ns" }
      | "desc_burst" -> Desc_burst { count = get_int j "count" }
      | "restart" -> Restart { service = service_of_json j "service" }
      | other -> Json.fail "unknown op %s" other)
  | _ -> Json.fail "op object lacks an \"op\" field"
