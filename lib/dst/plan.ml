(* Injection plans: the fault half of a DST scenario.

   Where the periodic SWIFI injector draws (register, bit, time) at
   virtual-time intervals, a plan names its faults explicitly — the
   n-th dispatch into a service, the n-th storage write — so a failing
   (ops, plan) pair replays and shrinks structurally: removing a fault
   never perturbs when the remaining ones fire relative to the ops. *)

module Rng = Sg_util.Rng
module Reg = Sg_kernel.Reg
module Json = Sg_util.Json

type fault =
  | Flip of {
      fl_service : string;
      fl_nth : int;  (* fires at the first dispatch with counter >= nth *)
      fl_reg : Reg.t;
      fl_bit : int;
      fl_at_pm : int;  (* offset into the op window, per-mille *)
    }
  | Storage_write of { sw_nth : int }
  | Crash of { cr_service : string; cr_nth : int }
  | Double of { db_service : string; db_nth : int; db_gap : int }
  | Perturb of {
      pb_iface : string;
      pb_fn : string;
      pb_field : string;  (* a param name, "ret", "@drop", "@dup", "@reorder" *)
      pb_nth : int;  (* fires at the first matching invocation >= nth *)
      pb_every : bool;  (* sustained: fire on every nth invocation *)
      pb_walk : bool;  (* racing: target recovery-walk replays instead *)
    }

type config = {
  pc_flip : int;
  pc_storage : int;
  pc_crash : int;
  pc_double : int;
  pc_max_faults : int;
  pc_nth_range : int;
}

let default_config =
  {
    pc_flip = 3;
    pc_storage = 2;
    pc_crash = 4;
    pc_double = 2;
    pc_max_faults = 3;
    pc_nth_range = 40;
  }

(* crash-heavy plans aimed at one service: what a mutant-hunting
   campaign uses, since a recovery bug only shows once recovery runs *)
let focus_config =
  {
    pc_flip = 1;
    pc_storage = 1;
    pc_crash = 6;
    pc_double = 3;
    pc_max_faults = 3;
    pc_nth_range = 25;
  }

(* the fault categories in draw order, each with its weight: one draw
   picks a category, then its fault draws its fields *)
let categories config ~services =
  let service rng = Rng.choose rng services in
  let nth rng = 1 + Rng.int rng (max 1 config.pc_nth_range) in
  [|
    ( config.pc_flip,
      fun rng ->
        Flip
          {
            fl_service = service rng;
            fl_nth = nth rng;
            fl_reg = Rng.choose rng Reg.all;
            fl_bit = Rng.int rng 32;
            fl_at_pm = Rng.int rng 1001;
          } );
    (config.pc_storage, fun rng -> Storage_write { sw_nth = 1 + Rng.int rng 20 });
    ( config.pc_crash,
      fun rng -> Crash { cr_service = service rng; cr_nth = nth rng } );
    ( config.pc_double,
      fun rng ->
        Double
          {
            db_service = service rng;
            db_nth = nth rng;
            db_gap = 1 + Rng.int rng 3;
          } );
  |]

let generate ~config ~services rng =
  let cats = categories config ~services:(Array.of_list services) in
  (* an all-zero-weight config means "inject nothing": the fault-free
     control arm of a campaign, not an error *)
  if services = [] || Array.for_all (fun (w, _) -> w <= 0) cats then []
  else
    let n = 1 + Rng.int rng (max 1 config.pc_max_faults) in
    List.init n (fun _ -> Rng.weighted rng cats rng)

let fault_label = function
  | Flip { fl_service; fl_nth; fl_reg; fl_bit; fl_at_pm } ->
      Printf.sprintf "flip(%s@%d %s bit %d at %d‰)" fl_service fl_nth
        (Reg.to_string fl_reg) fl_bit fl_at_pm
  | Storage_write { sw_nth } -> Printf.sprintf "storage-write(%d)" sw_nth
  | Crash { cr_service; cr_nth } ->
      Printf.sprintf "crash(%s@%d)" cr_service cr_nth
  | Double { db_service; db_nth; db_gap } ->
      Printf.sprintf "double(%s@%d+%d)" db_service db_nth db_gap
  | Perturb { pb_iface; pb_fn; pb_field; pb_nth; pb_every; pb_walk } ->
      let tags =
        (if pb_every then [ "every" ] else [])
        @ if pb_walk then [ "walk" ] else []
      in
      Printf.sprintf "perturb(%s.%s %s@%d%s)" pb_iface pb_fn pb_field pb_nth
        (match tags with [] -> "" | ts -> " " ^ String.concat "," ts)

(* ---------- JSON ---------- *)

let fault_to_json f =
  let o name fields = Json.Obj (("fault", Json.Str name) :: fields) in
  match f with
  | Flip { fl_service; fl_nth; fl_reg; fl_bit; fl_at_pm } ->
      o "flip"
        [
          ("service", Json.Str fl_service);
          ("nth", Json.Int fl_nth);
          ("reg", Json.Str (Reg.to_string fl_reg));
          ("bit", Json.Int fl_bit);
          ("at_pm", Json.Int fl_at_pm);
        ]
  | Storage_write { sw_nth } -> o "storage_write" [ ("nth", Json.Int sw_nth) ]
  | Crash { cr_service; cr_nth } ->
      o "crash" [ ("service", Json.Str cr_service); ("nth", Json.Int cr_nth) ]
  | Double { db_service; db_nth; db_gap } ->
      o "double"
        [
          ("service", Json.Str db_service);
          ("nth", Json.Int db_nth);
          ("gap", Json.Int db_gap);
        ]
  | Perturb { pb_iface; pb_fn; pb_field; pb_nth; pb_every; pb_walk } ->
      (* the sustained/racing flags are emitted only when set, so every
         pre-existing single-shot artifact stays byte-identical *)
      o "perturb"
        ([
           ("service", Json.Str pb_iface);
           ("fn", Json.Str pb_fn);
           ("field", Json.Str pb_field);
           ("nth", Json.Int pb_nth);
         ]
        @ (if pb_every then [ ("every", Json.Bool true) ] else [])
        @ if pb_walk then [ ("walk", Json.Bool true) ] else [])

let fault_of_json j =
  let get_int = Json.get_int and get_str = Json.get_str in
  let service () = Gen.service_of_json j "service" in
  match Json.member "fault" j with
  | Some (Json.Str name) -> (
      match name with
      | "flip" ->
          let reg = get_str j "reg" in
          Flip
            {
              fl_service = service ();
              fl_nth = get_int j "nth";
              fl_reg =
                (match Reg.of_string reg with
                | Some r -> r
                | None -> Json.fail "unknown register %s" reg);
              fl_bit = get_int j "bit";
              fl_at_pm = get_int j "at_pm";
            }
      | "storage_write" -> Storage_write { sw_nth = get_int j "nth" }
      | "crash" ->
          Crash { cr_service = service (); cr_nth = get_int j "nth" }
      | "double" ->
          Double
            {
              db_service = service ();
              db_nth = get_int j "nth";
              db_gap = get_int j "gap";
            }
      | "perturb" ->
          (* absent flags parse as false: old artifacts stay loadable *)
          let get_flag field =
            match Json.member field j with
            | Some (Json.Bool b) -> b
            | _ -> false
          in
          Perturb
            {
              pb_iface = get_str j "service";
              pb_fn = get_str j "fn";
              pb_field = get_str j "field";
              pb_nth = get_int j "nth";
              pb_every = get_flag "every";
              pb_walk = get_flag "walk";
            }
      | other -> Json.fail "unknown fault %s" other)
  | _ -> Json.fail "fault object lacks a \"fault\" field"
