(* Replay artifacts: a failing scenario serialized to one JSON object.

   The artifact is the whole repro: the sut label, the seed, the
   verdict class the run produced, the op sequence (or classic workload
   shape) and the injection plan. Rendering is canonical — field order
   is fixed and Json.to_string emits no insignificant whitespace — so
   equal scenarios produce byte-identical artifacts, which the CI gate
   checks across shrink parallelism levels. *)

module Json = Sg_util.Json

let schema = "superglue-dst"
let version = 1

type t = {
  af_sut : string;  (* Exec.sut_label *)
  af_verdict : string;  (* Exec.verdict_class *)
  af_scenario : Exec.scenario;
}

let workload_to_json = function
  | Exec.Ops ops ->
      Json.Obj
        [
          ("kind", Json.Str "ops");
          ("ops", Json.List (List.map Gen.op_to_json ops));
        ]
  | Exec.Classic { iface; iters; knob } ->
      Json.Obj
        [
          ("kind", Json.Str "classic");
          ("iface", Json.Str iface);
          ("iters", Json.Int iters);
          ("knob", Json.Int knob);
        ]

let to_json a =
  Json.versioned_report ~schema ~version
    [
      ("sut", Json.Str a.af_sut);
      ("seed", Json.Int a.af_scenario.Exec.sc_seed);
      ("verdict", Json.Str a.af_verdict);
      ("workload", workload_to_json a.af_scenario.Exec.sc_workload);
      ("plan", Json.List (List.map Plan.fault_to_json a.af_scenario.Exec.sc_plan));
    ]

let to_string a = Json.to_string (to_json a)

let workload_of_json j =
  match Json.member "kind" j with
  | Some (Json.Str "ops") -> (
      match Json.member "ops" j with
      | Some (Json.List ops) -> Exec.Ops (List.map Gen.op_of_json ops)
      | _ -> Json.fail "ops workload lacks an \"ops\" array")
  | Some (Json.Str "classic") ->
      let positive field =
        let n = Json.get_int j field in
        if n < 1 then Json.fail "classic %s %d is below 1" field n;
        n
      in
      Exec.Classic
        {
          iface = Gen.service_of_json j "iface";
          iters = positive "iters";
          knob = positive "knob";
        }
  | _ -> Json.fail "workload kind missing or unknown"

let of_json j =
  (match Json.member "schema" j with
  | Some (Json.Str s) when s = schema -> ()
  | _ -> Json.fail "not a %s artifact" schema);
  (match Json.member "version" j with
  | Some (Json.Int v) when v = version -> ()
  | Some (Json.Int v) -> Json.fail "unsupported artifact version %d" v
  | _ -> Json.fail "artifact lacks a version");
  let plan =
    match Json.member "plan" j with
    | Some (Json.List fs) -> List.map Plan.fault_of_json fs
    | _ -> Json.fail "artifact lacks a \"plan\" array"
  in
  let workload =
    match Json.member "workload" j with
    | Some w -> workload_of_json w
    | None -> Json.fail "artifact lacks a \"workload\""
  in
  {
    af_sut = Json.get_str j "sut";
    af_verdict = Json.get_str j "verdict";
    af_scenario =
      { Exec.sc_seed = Json.get_int j "seed"; sc_workload = workload; sc_plan = plan };
  }

let of_string s = of_json (Json.parse s)

let save path a =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string a);
      output_char oc '\n')

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
